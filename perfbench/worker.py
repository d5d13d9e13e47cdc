"""One fresh benchmark process: set up a workload, then (in run mode) time passes.

    python3 perfbench/worker.py --mode setup --workload W --seed N [--smoke]
    python3 perfbench/worker.py --mode run --workload W --seed N --seconds S --trace 0|1 [--smoke]

Prints one JSON object on stdout. run.py starts this with LEVILAB_THREADS=1
and the checkout's src/ on PYTHONPATH; it is not meant to be run by hand.
"""

import time

T0 = time.perf_counter()  # before numpy and levilab are imported: setup includes the imports

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def import_levilab() -> None:
    """Import levilab with its CLI and spec parser, which are measured only here."""
    import levilab
    import levilab.cli  # noqa: F401
    import levilab.specfile  # noqa: F401

    if Path(levilab.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"levilab was imported from {levilab.__file__}, not from {SRC}")


def _report_json(result) -> str:
    if isinstance(result, Exception):
        return json.dumps({"error": type(result).__name__, "message": str(result)})
    if isinstance(result, list):
        return json.dumps([
            {"name": c.name, "n": c.n, "j": c.j, "seed": c.seed, "ok": c.ok, "max_terms": c.max_terms,
             "residual_terms": [p.n_terms for p in c.residuals]}
            for c in result
        ])
    return result.to_json()


def _digest(outcomes) -> str:
    h = hashlib.sha256()
    for call, result in outcomes:
        h.update(call.name.encode())
        h.update(_report_json(result).encode())
    return h.hexdigest()


def _timed_pass(workload):
    """Wall seconds of one pass, the same scaled to the reference machine, and the outcomes."""
    from levilab import quadrature
    import reference
    import workloads

    quadrature.clear_root_cache()
    with reference.SpeedSampler() as sampler:
        outcomes = workloads.run_pass(workload)
    return sampler.wall_seconds(), sampler.scaled_seconds(), outcomes


def _traced_pass(workload):
    from levilab import quadrature
    import spans
    import workloads

    tracer = spans.Tracer()
    with tracer.install():
        quadrature.clear_root_cache()
        t = time.perf_counter()
        outcomes = workloads.run_pass(workload)
        run_s = time.perf_counter() - t
    return run_s, outcomes, tracer


def _layer_record(run_s: float, tracer, outcomes) -> dict:
    selfs = tracer.self_times()
    nodes = sum(
        r.quadrature["nodes_used"] for _, r in outcomes if hasattr(r, "quadrature")
    )
    return {
        "run_s": run_s,
        "self_s": selfs,
        "counts": dict(tracer.counts),
        "eval_jets_s": tracer.function_times("surfaces.eval_jets"),
        "nodes": int(nodes),
    }


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import answers
    import workloads

    import_levilab()  # before any tracer is installed, so no module binds a wrapper
    if trace:
        import spans

        setup_tracer = spans.Tracer()
        with setup_tracer.install():
            workload = workloads.build(name, seed, smoke=smoke)
        profile_s = setup_tracer.self_times()["reinhardt"]
        # the first grid is built here; in the passes sphere_grid is a cache hit
        grid_s = setup_tracer.function_times("quadrature.sphere_grid")
    else:
        workload = workloads.build(name, seed, smoke=smoke)
        profile_s = grid_s = None

    _timed_pass(workload)  # warm-up, discarded: the first pass runs slower
    untraced, scaled, traced, digests = [], [], [], set()
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < seconds:
        run_s, run_scaled, outcomes = _timed_pass(workload)
        untraced.append(run_s)
        scaled.append(run_scaled)
        digests.add(_digest(outcomes))
        if trace:
            run_s, t_outcomes, tracer = _traced_pass(workload)
            traced.append(_layer_record(run_s, tracer, t_outcomes))
            digests.add(_digest(t_outcomes))

    items = answers.score(outcomes)
    refs = answers.references(workload, outcomes)
    checks = [c for _, r in outcomes if isinstance(r, list) for c in r]
    return {
        "inputs": {k: repr(v) for k, v in workload.inputs.items()},
        "untraced_s": untraced,
        "scaled_s": scaled,
        "traced": traced,
        "reinhardt_profile_s": profile_s,
        "grid_s": grid_s,
        "items": [vars(i) for i in items],
        "refs": [[label, computed, exact, answers.digits(computed, exact)] for label, computed, exact in refs],
        "digests": sorted(digests),
        "wirtinger_checks": len(checks),
        "wirtinger_max_terms": max((c.max_terms for c in checks), default=0),
        "passes": len(untraced) + len(traced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if args.mode == "setup":
        import reference  # imports numpy, which levilab needs too
        import workloads

        with reference.SpeedSampler(since=T0) as sampler:
            import_levilab()
            workloads.build(args.workload, args.seed, smoke=args.smoke)
        out = {"setup_s": sampler.wall_seconds(), "scaled_s": sampler.scaled_seconds()}
    else:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
