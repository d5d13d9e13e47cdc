"""Import guards: the public API's names, no scipy module loaded by the program,
and no environment read or thread pool in its source.

Import, the identity checks, the direction grid, the quadrature-only
verifications (sphere, Dirichlet chain) and the Reinhardt profiles with their
Alexandrov check load no scipy module: scipy is a test-only dependency.

Each case runs in a fresh interpreter, since this test process has long since
imported scipy, and prints the sorted names of the loaded scipy modules.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import levilab

SRC = str(Path(levilab.__file__).resolve().parent.parent)

PRELUDE = """
import json, sys
import levilab, levilab.cli, levilab.specfile
"""
EPILOGUE = """
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def scipy_modules_after(body: str, cwd=None) -> set[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + body + EPILOGUE],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


def test_public_api_exposes_one_implementation_per_quantity():
    # the batch kernels behind the validated HermitianMatrix; the scalar shadows are gone
    for name in ("HermitianMatrix", "sigma_batch", "newton_gap_batch", "radial_roots", "FrameBatch", "levi",
                 "mean_curvature"):
        assert callable(getattr(levilab, name)), name
    for name in ("sigma", "sigma_grad", "newton_gap", "Jet2", "jet", "radial_root", "levi_at", "mean_curvature_at"):
        assert not hasattr(levilab, name), name


def test_no_module_reads_the_environment_or_imports_a_thread_pool():
    # no environment variable selects a code path or changes an output byte
    found = []
    for path in sorted(Path(levilab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = []
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names] + [node.module or ""]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            found += [(path.name, name) for name in names
                      if name in ("os.environ", "os.getenv") or name.startswith("concurrent")]
    assert found == []


def test_import_and_identity_checks_load_no_scipy():
    loaded = scipy_modules_after(
        """
from levilab import wirtinger
assert all(c.ok for c in wirtinger.run_identity_suite(1))
assert levilab.cli.main(["identities", "--n", "1"]) == 0
"""
    )
    assert loaded == set()


def test_sphere_grid_loads_no_scipy():
    loaded = scipy_modules_after(
        """
from levilab import quadrature, verify
levilab.Sphere(1.0)
quadrature.sphere_grid(4, 8)
q = quadrature.QuadratureSpec(order=4)
verify.verify_integral_formula(levilab.Sphere(1.5, n=2), 2, q)
verify.dirichlet_chain([1.0, 1.0, 1.0, 2.0], 1, q)
"""
    )
    assert loaded == set()


def test_reinhardt_profiles_and_alexandrov_load_no_scipy(tmp_path):
    (tmp_path / "reinhardt.txt").write_text("family=reinhardt\nk=0.5\nf0=4.0\n")
    loaded = scipy_modules_after(
        """
from levilab import quadrature, verify
spec = levilab.ReinhardtSurface(0.5, 4.0)
levilab.ReinhardtSurface(0.5, 3.5, fp0=-1.1, s0=0.8, smax=3.0)
verify.alexandrov_check(spec, 1, quadrature.QuadratureSpec(order=8))
assert levilab.cli.main(["verify", "alexandrov", "--surface", "reinhardt.txt", "--quad", "gauss:order=8",
                         "--out", "report.json"]) == 0
""",
        cwd=tmp_path,
    )
    assert loaded == set()
