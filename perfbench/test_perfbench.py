"""Self-tests of the benchmark, in smoke mode (tiny orders, seconds per run).

    python3 -m pytest perfbench -q
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import answers  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, seed: int = 7, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_printed_metrics_are_declared(workload, trace, section):
    lines, result = parse(run_bench(workload, trace))
    declared = {m["name"]: m["unit"] for m in BENCH[section]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {line.split()[1] for line in lines if line.startswith("  metric ")}
    assert printed == set(declared)
    assert result["attempted"] >= 1 and result["failed"] == 0


def test_traced_runs_repeat_exactly():
    counts = ("jets.points", "jets.ray_points", "jets.value_points", "roots.rays", "roots.ray_evals",
              "curvature.frames", "hermitian.matrices", "quadrature.nodes", "wirtinger.checks",
              "wirtinger.max_terms")
    for workload in workloads.WORKLOADS:
        runs = [parse(run_bench(workload, 1)) for _ in range(2)]
        digests = [[ln for ln in lines if "reports_sha256" in ln] for lines, _ in runs]
        assert digests[0] == digests[1] and len(digests[0][0].split()) == 2
        first, second = ({k: r["metrics"][k]["value"] for k in counts} for _, r in runs)
        assert first == second


def test_spans_fit_inside_the_traced_run():
    # other.self_s is the traced run_s minus the layer self times, so it goes
    # negative when spans are counted twice or come from outside the pass, and
    # grows when the calls of a layer escape the wrappers.
    _, result = parse(run_bench("boundary-n1", 1))
    m = {k: v["value"] for k, v in result["metrics"].items()}
    layers = sum(v for k, v in m.items() if k.endswith(".self_s") and k != "other.self_s")
    assert 0.0 <= m["other.self_s"] <= 0.2 * m["trace.run_s"]
    assert layers <= m["trace.run_s"]
    assert m["jets.self_s"] > 0 and m["roots.rays"] > 0 and m["curvature.frames"] > 0
    assert m["quadrature.grid_s"] > 0


def test_each_slice_is_scaled_by_its_kernel_times():
    import reference

    k = reference.REF_S
    sampler = reference.SpeedSampler()
    sampler.samples = [(0.0, k), (1.0, k), (3.0, 2.0 * k)]
    assert sampler.wall_seconds() == pytest.approx(3.0 - 2.0 * k)
    assert sampler.scaled_seconds() == pytest.approx((1.0 - k) + (2.0 - k) / 1.5)


def test_sampler_samples_during_the_block_and_restores_the_timer():
    import reference

    before = signal.getsignal(signal.SIGALRM)
    t = time.perf_counter()
    with reference.SpeedSampler() as sampler:
        while time.perf_counter() - t < 4 * reference.PERIOD_S:
            pass
    elapsed = time.perf_counter() - t
    assert len(sampler.samples) >= 5
    kernel = sum(k for _, k in sampler.samples)
    assert sampler.wall_seconds() == pytest.approx(elapsed - kernel, abs=0.01)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_flipped_expected_verdict_is_counted_wrong():
    work = workloads.build("bulk-n2", 3, smoke=True)
    outcomes = workloads.run_pass(work)
    base = answers.shares(answers.score(outcomes))
    flipped = dict(answers.KNOWN, **{"integral_formula:sphere": "violated"})
    items = answers.score(outcomes, known=flipped)
    after = answers.shares(items)
    assert after["wrong_share"] == pytest.approx(base["wrong_share"] + 0.5)
    assert after["not_wrong_share"] == pytest.approx(base["not_wrong_share"] - 0.5)
    assert not next(i for i in items if i.call == "integral_formula:sphere").known_defect


def test_every_call_has_a_known_answer():
    for name in workloads.WORKLOADS:
        for smoke in (False, True):
            for call in workloads.build(name, 0, smoke=smoke).calls:
                assert call.name in answers.KNOWN


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("bulk-n2", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
