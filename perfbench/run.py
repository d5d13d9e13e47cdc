"""levilab benchmark: seeded workloads over the public API, end to end and per layer.

    python3 perfbench/run.py --workload bulk-n2 --seed 1 --seconds 18 --trace 0

Run from the root of a checkout; the program is imported from its src/.
With --trace 0 the last line of stdout is the JSON result with every
end-to-end metric of BENCHMARK.json, with --trace 1 every per-layer metric.
--smoke runs tiny quadrature orders, for the benchmark's own tests.
Exits non-zero without a result when the checkout holds no levilab source or
a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import answers  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5      # fresh processes timed for setup_s; the median is reported
RUN_LIMIT_S = 170.0    # all workers of a run end within this; a run must end within 180 s
PINNED_ENV = {
    "LEVILAB_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _worker(args: list[str], timeout: float) -> dict:
    """Run worker.py in a fresh process and return its JSON; raise on failure."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=_worker_env(), capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        **PINNED_ENV,
    }


def _median_traced(traced: list[dict]) -> dict:
    return sorted(traced, key=lambda t: t["run_s"])[(len(traced) - 1) // 2]


def end_to_end(out: dict, setup_s: list[float], items: list) -> dict:
    ref_digits = min(r[3] for r in out["refs"])
    s = answers.shares(items)
    return {
        "run_s": (statistics.median(out["scaled_s"]), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
        "correct_share": (s["correct_share"], "share"),
        "not_wrong_share": (s["not_wrong_share"], "share"),
        "ref_digits": (ref_digits, "digits"),
    }


def per_layer(out: dict) -> dict:
    t = _median_traced(out["traced"])
    selfs, counts, nodes = t["self_s"], t["counts"], t["nodes"]
    points = counts.get("jets.points", 0)
    rays = counts.get("roots.rays", 0)
    other = t["run_s"] - sum(selfs.values())
    return {
        "jets.self_s": (selfs["jets"], "s"),
        "jets.points": (points, "count"),
        "jets.ray_points": (counts.get("jets.ray_points", 0), "count"),
        "jets.value_points": (counts.get("jets.value_points", 0), "count"),
        "jets.points_per_s": (points / t["eval_jets_s"] if points else 0.0, "1/s"),
        "roots.self_s": (selfs["roots"], "s"),
        "roots.rays": (rays, "count"),
        "roots.ray_evals": (counts.get("roots.ray_evals", 0), "count"),
        "roots.rays_per_node": (rays / nodes if nodes else 0.0, "ratio"),
        "curvature.self_s": (selfs["curvature"], "s"),
        "curvature.frames": (counts.get("curvature.frames", 0), "count"),
        "hermitian.self_s": (selfs["hermitian"], "s"),
        "hermitian.matrices": (counts.get("hermitian.matrices", 0), "count"),
        "quadrature.self_s": (selfs["quadrature"], "s"),
        "quadrature.grid_s": (out["grid_s"], "s"),
        "quadrature.nodes": (nodes, "count"),
        "quadrature.useful_ratio": (nodes / points if points else 0.0, "ratio"),
        "verify.self_s": (selfs["verify"], "s"),
        "reinhardt.profile_s": (out["reinhardt_profile_s"], "s"),
        "wirtinger.self_s": (selfs["wirtinger"], "s"),
        "wirtinger.checks": (out["wirtinger_checks"], "count"),
        "wirtinger.max_terms": (out["wirtinger_max_terms"], "count"),
        "other.self_s": (other, "s"),
        "trace.run_s": (t["run_s"], "s"),
        "trace.overhead_s": (t["run_s"] - statistics.median(out["untraced_s"]), "s"),
    }


def is_correct(out: dict, items: list) -> bool:
    """Every answer is the known one (a listed open defect may stay wrong or
    become non-definite), every closed form is met to REF_DIGITS_FLOOR digits,
    and every pass produced byte-identical reports."""
    for item in items:
        if item.status == "correct" or item.known_defect:
            continue
        if item.status == "nondefinite" and item.call in answers.KNOWN_DEFECTS:
            continue
        return False
    refs_ok = all(r[3] >= answers.REF_DIGITS_FLOOR for r in out["refs"])
    return refs_ok and len(out["digests"]) == 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny orders, one setup sample")
    args = ap.parse_args()

    if not (ROOT / "src" / "levilab" / "__init__.py").is_file():
        print(f"no levilab source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    try:
        out = _worker(common + ["--mode", "run", "--seconds", str(args.seconds), "--trace", str(args.trace)],
                      timeout=deadline - time.monotonic())
        setup_s, setup_wall = [], []
        if not args.trace:
            for _ in range(1 if args.smoke else SETUP_SAMPLES):
                setup = _worker(common + ["--mode", "setup"], timeout=deadline - time.monotonic())
                setup_s.append(setup["scaled_s"])
                setup_wall.append(setup["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    items = [answers.Item(**i) for i in out["items"]]
    metrics = per_layer(out) if args.trace else end_to_end(out, setup_s, items)
    correct = is_correct(out, items)
    wrong = [i for i in items if i.status == "wrong"]

    print(f"levilab benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}{', smoke' if args.smoke else ''}")
    print("env " + json.dumps(_environment()))
    print("inputs " + json.dumps(out["inputs"]))
    for i in items:
        note = " (known open defect)" if i.known_defect else ""
        print(f"  verdict {i.name:42s} expected {i.expected:20s} got {i.got:20s} {i.status}{note}")
    for label, _, _, d in out["refs"]:
        print(f"  reference {label:42s} {d:6.2f} digits")
    print(f"  wrong answers: {len(wrong)} of {len(items)}")
    print(f"  untraced passes, wall (s): {' '.join(f'{x:.3f}' for x in out['untraced_s'])}")
    print(f"  untraced passes, scaled to the reference machine (s): "
          f"{' '.join(f'{x:.3f}' for x in out['scaled_s'])}")
    if args.trace:
        print(f"  traced passes (s): {' '.join(format(t['run_s'], '.3f') for t in out['traced'])}")
    else:
        print(f"  setup samples, wall (s): {' '.join(f'{x:.3f}' for x in setup_wall)}")
        print(f"  setup samples, scaled to the reference machine (s): {' '.join(f'{x:.3f}' for x in setup_s)}")
    print(f"  reports_sha256 {' '.join(out['digests'])}")
    for name, (value, unit) in metrics.items():
        print(f"  metric {name:26s} {value:14.6g} {unit}")

    n_items = len(items) * out["passes"]
    errors = sum(i.status == "error" for i in items) * out["passes"]
    result = {
        "correct": correct,
        "attempted": n_items,
        "failed": errors,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
