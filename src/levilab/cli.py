"""Command-line front end.

Subcommands: curvature (pointwise quantities), identities (polynomial identities checked
exactly at seeded points), verify <identity> (quadrature-backed verification with a JSON
report), batch (one verification over a directory of surface files plus a CSV summary).
Exit codes: 0 success / verdict as contracted, 2 violated, 3 hypotheses not met (the
verdict of every suite whose hypothesis fails on the surface: K <= 0 at a node, K not
constant, H outside the Garding cone), 4 numerical failure, 64 usage error (an argument
out of range, a surface or quadrature description or a --point or --direction that does
not parse, or a path that cannot be read or written, named in one line); batch exits with
the worst code over its files, 64 before 2 before 4 before 3, and a spec file that cannot
be read counts as 64, as one that does not parse or one whose n puts --j out of range.
Reports embed the fully resolved configuration; identical argv and seed give
byte-identical output.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import curvature as cv
from . import surfaces as sf
from . import verify as vf
from . import wirtinger as wt
from .errors import LevilabError, SpecParseError

USAGE_EXIT = 64
VIOLATED_EXIT = 2
HYPOTHESES_EXIT = 3
FAILURE_EXIT = 4

SURFACE_HELP = (  # each family with its keys, the parameters of its constructor
    "surface description: inline 'family:key=val,...' or a path to a key=value file. Families: "
    + ", ".join(f"{name} ({', '.join(sf.spec_keys(cls))})" for name, cls in sf.FAMILIES.items())
    + ". Example: sphere:R=2 or ellipsoid:axes=1,1,1,2"
)
QUAD_HELP = ("quadrature: gauss:order=N, the one spherical product rule "
             "(default order 24 for n=1, 12 for n=2)")


# identity -> run(spec, j, q, **kw); every verifier takes --tol as tol. The
# lambdas look the verifier up at call time, so a rebinding of vf.<name> is seen.
VERIFIERS = {
    "integral": lambda spec, j, q, **kw: vf.verify_integral_formula(spec, j, q, **kw),
    "isoperimetric": lambda spec, j, q, **kw: vf.isoperimetric_ratio(spec, j, q, **kw),
    "minkowski": lambda spec, j, q, **kw: vf.minkowski_residual(spec, q, **kw),
    "alexandrov": lambda spec, j, q, **kw: vf.alexandrov_check(spec, j, q, **kw),
    "dirichlet": lambda spec, j, q, **kw:
        vf.dirichlet_chain(vf.resolve_defining_function(spec, "dirichlet").axes, j, q, **kw),
    "newton": lambda spec, j, q, **kw: vf.newton_sweep(spec, j, q, **kw),
}
IDENTITIES = tuple(VERIFIERS)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _build_parser() -> _Parser:
    p = _Parser(prog="levilab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("curvature", help="pointwise curvature quantities at a boundary point")
    c.add_argument("--surface", required=True, help=SURFACE_HELP)
    c.add_argument("--point", help="comma-separated boundary point coordinates")
    c.add_argument("--direction", help="ray direction from the star center instead of an explicit point")
    c.add_argument("--j", type=int, default=1, help="curvature index (default 1)")
    c.add_argument("--out", default="-", help="output path, '-' for stdout (default)")

    i = sub.add_parser("identities", help="polynomial identity checks, exact at seeded points")
    i.add_argument("--n", type=int, required=True, help=f"complex dimension minus one (1..{wt.MAX_NVARS - 1})")
    i.add_argument("--j", type=int, default=None, help="single index to check (default: all admissible)")
    i.add_argument("--seed", type=int, default=wt.DEFAULT_SEED, help="seed of the generic polynomial")

    v = sub.add_parser("verify", help="quadrature-backed verification of one identity")
    v.add_argument("identity", choices=IDENTITIES)
    v.add_argument("--surface", required=True, help=SURFACE_HELP)
    v.add_argument("--j", type=int, default=1, help="curvature index (default 1)")
    v.add_argument("--quad", default=None, help=QUAD_HELP)
    v.add_argument("--f-choice", default="default", choices=("default", "exp", "dirichlet"),
                   help="defining function for the integral formula (default: the family's own)")
    v.add_argument("--tol", type=float, default=None,
                   help="verdict tolerance override (for newton: the gap tolerance)")
    v.add_argument("--out", default="-", help="report path, '-' for stdout (default)")

    b = sub.add_parser("batch", help="one verification across a directory of surface files")
    b.add_argument("config_dir", help="directory of surface spec files")
    b.add_argument("--identity", required=True, choices=IDENTITIES)
    b.add_argument("--j", type=int, default=1)
    b.add_argument("--quad", default=None, help=QUAD_HELP)
    b.add_argument("--tol", type=float, default=None)
    b.add_argument("--out-dir", default="reports", help="where reports and summary.csv go (default ./reports)")
    return p


def _output_dir(path: str) -> str:
    """Make the directory of an output path, and fail (OSError) where it cannot be made or written: run
    before a command's computation, so that an unwritable --out exits 64 at once."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    if not os.access(d, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), d)
    return d


def _write_output(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    d = _output_dir(path)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".levilab-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _usage(command: str, message: str) -> int:
    print(f"levilab {command}: {message}", file=sys.stderr)
    return USAGE_EXIT


def _resolve_quad(arg, n: int):
    from .specfile import parse_quadrature

    return parse_quadrature(arg, default_order=24 if n <= 1 else 12)


def _cmd_curvature(args) -> int:
    from .specfile import parse_surface

    if args.out != "-":
        _output_dir(args.out)
    spec = parse_surface(args.surface)
    if (args.point is None) == (args.direction is None):
        return _usage("curvature", "exactly one of --point or --direction is required")
    option, text = ("point", args.point) if args.point is not None else ("direction", args.direction)
    try:
        point = np.array([float(x) for x in text.split(",")])
    except ValueError:
        return _usage("curvature", f"--{option} {text!r}: expected comma-separated numbers")
    if point.shape != (spec.m,):
        return _usage("curvature", f"{option} needs {spec.m} coordinates")
    if option == "direction":  # the boundary point on the ray; a zero or non-finite ray is for radial_roots to reject
        norm = np.linalg.norm(point)
        direction = point / norm if 0 < norm < np.inf else point
        rho, _ = sf.radial_roots(spec, direction)
        point = spec.star_center + rho[0] * direction
    if not 1 <= args.j <= spec.n:
        return _usage("curvature", f"j={args.j} out of range 1..{spec.n}")
    frames = cv.FrameBatch.at_points(spec, point)
    out = {
        "config": {
            "command": "curvature",
            "surface": spec.canonical(),
            "point": [float(x) for x in point],
            "j": args.j,
        },
        "K": float(cv.levi(frames, args.j)[0]),
        "H": float(cv.mean_curvature(frames)[0]),
        "pgrad_norm": float(frames.pgrad_norm[0]),
        "normal": [float(x) for x in frames.normal[0]],
    }
    _write_output(args.out, json.dumps(out, indent=2) + "\n")
    return 0


def _cmd_identities(args) -> int:
    if not 1 <= args.n < wt.MAX_NVARS:
        return _usage("identities", f"n={args.n} out of range 1..{wt.MAX_NVARS - 1} (cost bound n+1 <= {wt.MAX_NVARS})")
    if args.j is not None and not 1 <= args.j <= args.n:
        return _usage("identities", f"j={args.j} out of range 1..{args.n}")
    results = wt.run_identity_suite(args.n, seed=args.seed, j=args.j)
    all_ok = True
    max_terms = 0
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        all_ok &= r.ok
        max_terms = max(max_terms, r.max_terms)
        print(f"{status} {r.name} n={r.n} j={r.j} seed={r.seed} "
              f"residual_terms={max(p.n_terms for p in r.residuals)} max_terms={r.max_terms}")
    print(f"{'PASS' if all_ok else 'FAIL'} suite n={args.n} checks={len(results)} max_monomials={max_terms}")
    return 0 if all_ok else VIOLATED_EXIT


def _tol_problem(identity: str, tol) -> str | None:
    """Why --tol cannot be used, or None. It must be finite. Where it bounds a relative
    error (integral, minkowski) it must be non-negative too; elsewhere it is the slack of
    an inequality margin, and a negative value demands a strict margin."""
    rel_err = identity in ("integral", "minkowski")
    if tol is None or math.isfinite(tol) and (tol >= 0 or not rel_err):
        return None
    return f"--tol={tol!r} must be finite" + (" and non-negative" if rel_err else "")


def _run_verification(identity: str, spec, j: int, q, tol, f_choice: str) -> vf.VerificationReport:
    kw = {} if tol is None else {"tol": tol}
    if f_choice != "default":
        kw["f_choice"] = f_choice
    return VERIFIERS[identity](spec, j, q, **kw)


def _cmd_verify(args) -> int:
    from .specfile import parse_surface

    if args.f_choice != "default" and args.identity != "integral":
        return _usage("verify", "--f-choice applies only to the integral identity")
    if problem := _tol_problem(args.identity, args.tol):
        return _usage("verify", problem)
    if args.out != "-":
        _output_dir(args.out)
    spec = parse_surface(args.surface)
    if not 1 <= args.j <= spec.n:
        return _usage("verify", f"j={args.j} out of range 1..{spec.n}")
    q = _resolve_quad(args.quad, spec.n)
    config = {
        "command": "verify",
        "identity": args.identity,
        "surface": spec.canonical(),
        "j": args.j,
        "quad": q.describe(),
        "tol": args.tol,
        "f_choice": args.f_choice,
    }
    report = _run_verification(args.identity, spec, args.j, q, args.tol, args.f_choice)
    _write_output(args.out, report.to_json(config))
    return report.exit_code


def _cmd_batch(args) -> int:
    from .specfile import parse_surface

    if problem := _tol_problem(args.identity, args.tol):
        return _usage("batch", problem)
    files = sorted(
        f for f in os.listdir(args.config_dir)
        if not f.startswith(".") and os.path.isfile(os.path.join(args.config_dir, f))
    )
    os.makedirs(args.out_dir, exist_ok=True)
    rows = []
    codes = set()
    for name in files:
        path = os.path.join(args.config_dir, name)
        stem = os.path.splitext(name)[0]
        try:
            spec = parse_surface(path)
            if not 1 <= args.j <= spec.n:  # a usage error, as verify's
                rows.append((name, args.identity, "", "", "", "error", f"j={args.j} out of range 1..{spec.n}"))
                codes.add(USAGE_EXIT)
                continue
            q = _resolve_quad(args.quad, spec.n)
            config = {
                "command": "batch",
                "identity": args.identity,
                "surface": spec.canonical(),
                "source_file": name,
                "j": args.j,
                "quad": q.describe(),
                "tol": args.tol,
            }
            report = _run_verification(args.identity, spec, args.j, q, args.tol, "default")
            _write_output(os.path.join(args.out_dir, stem + ".report.json"), report.to_json(config))
            rows.append((name, args.identity, report.lhs, report.rhs, report.rel_err,
                         report.verdict["kind"], ""))
            codes.add(report.exit_code)
        except (LevilabError, ValueError, OSError) as exc:
            rows.append((name, args.identity, "", "", "", "error", str(exc)))
            codes.add(USAGE_EXIT if isinstance(exc, (SpecParseError, OSError)) else FAILURE_EXIT)
    lines = ["surface,identity,lhs,rhs,rel_err,verdict,note"]
    for r in rows:
        fields = [r[0], r[1]]
        for x in r[2:5]:
            fields.append(f"{x:.17g}" if isinstance(x, float) else "")
        fields.append(r[5])
        fields.append('"' + r[6].replace('"', "'") + '"' if r[6] else "")
        lines.append(",".join(fields))
    _write_output(os.path.join(args.out_dir, "summary.csv"), "\n".join(lines) + "\n")
    print(f"{len(rows)} surfaces; summary written to {os.path.join(args.out_dir, 'summary.csv')}")
    # the worst outcome over the files: unread input, violated, a numerical failure, unmet hypotheses
    return next((code for code in (USAGE_EXIT, VIOLATED_EXIT, FAILURE_EXIT, HYPOTHESES_EXIT) if code in codes), 0)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else 0
    try:
        if args.command == "curvature":
            return _cmd_curvature(args)
        if args.command == "identities":
            return _cmd_identities(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "batch":
            return _cmd_batch(args)
    except (SpecParseError, OSError) as exc:  # OSError: a path that cannot be read or written
        print(f"levilab: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (LevilabError, ValueError) as exc:
        print(f"levilab: {exc}", file=sys.stderr)
        return FAILURE_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
