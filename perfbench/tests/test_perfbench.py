"""Tests of the benchmark itself: metric names and units, the oracles, the
tracer, the host-speed reference, and the refusal to run without the
library's sources.

    python3 -m pytest -q perfbench/tests
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name):
    if name == "verify-paper":
        return workloads.VerifyPaper(1, only="closure-order")
    if name == "orbit-scan":
        return workloads.OrbitScan(0, full=("G2",), sampled=("E6",), sample=1)
    return workloads.AlgebraOps(0, types=("E7",), mix=(
        ("bracket", 4, 3), ("killing", 2, 1), ("centralizer_dim", 2, 1)))


def measured(name, trace):
    args = argparse.Namespace(workload=name, seed=0, seconds=0, trace=trace)
    return (run.measure_traced if trace else run.measure)(tiny(name), args)


def units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_tiny_runs_emit_every_metric_with_its_unit():
    for w in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            tally, metrics, _ = measured(w, trace)
            assert not tally.wrong and tally.failed == 0, (w, trace, tally.wrong)
            assert {k: u for k, (_, u) in metrics.items()} == units(section), (w, trace)
            assert all(isinstance(v, (int, float)) for v, _ in metrics.values())
            if not trace:
                assert all(v > 0 for v, _ in metrics.values()), (w, metrics)


def test_wrong_orbit_count_raises_error_rate(monkeypatch):
    monkeypatch.setitem(workloads.ORBIT_COUNTS, "F4", 16)
    wl = workloads.OrbitScan(0, full=("G2", "F4"), sampled=())
    args = argparse.Namespace(workload="orbit-scan", seed=0, seconds=0, trace=0)
    tally, metrics, _ = run.measure(wl, args)
    assert tally.failed / tally.attempted > 0
    assert metrics["ok_rate"][0] < 1
    assert wl.missed == [("F4", "1 of 16 orbits")]


def test_wrong_killing_oracle_makes_run_incorrect(monkeypatch):
    monkeypatch.setitem(workloads.E_DATA, "E7", (19, 52, 66))
    wl = workloads.AlgebraOps(0, types=("E7",), mix=(("killing", 1, 4),))
    wl.setup()
    wl.prepare()
    _, _, outputs = wl.run_pass()
    failed, wrong = wl.check(outputs)
    nonzero = sum(1 for v in outputs if v != 0)
    assert failed == 0 and nonzero and len(wrong) == nonzero


def test_self_times_fit_in_traced_wall():
    _, metrics, _ = measured("orbit-scan", 1)
    self_sum = sum(metrics[f"{layer}.self_s"][0] for layer in layers.LAYERS)
    assert 0 < self_sum <= metrics["trace.wall_s"][0] + 1e-9
    assert metrics["dynkin.sl2_complete.calls"][0] > 0
    assert 0 < metrics["dynkin.sl2_complete.ok_ratio"][0] <= 1


def test_tracer_restores_the_library():
    from nilorb import chevalley, cli, dynkin

    before = (chevalley.ChevalleyAlgebra.bracket, dynkin.build_algebra, list(cli.SUITES))
    tracer = layers.Tracer()
    tracer.install()
    assert dynkin.build_algebra is chevalley.build_algebra
    assert dynkin.build_algebra is not before[1]
    tracer.uninstall()
    assert (chevalley.ChevalleyAlgebra.bracket, dynkin.build_algebra, list(cli.SUITES)) == before


def test_clock_leaves_out_reference_chunks():
    ticker = hostspeed.TICKER
    start = ticker.mark()
    c0, p0 = hostspeed.clock(), perf_counter()
    with ticker.running():
        while perf_counter() - p0 < 0.2:
            pass
    c1, p1 = hostspeed.clock(), perf_counter()
    end = ticker.mark()
    i = ticker.times.index(start)
    chunks = len(ticker.times) - i
    spent = ticker.spent - (ticker.spent_after[i - 1] if i else 0.0)
    assert chunks > 2
    assert 0 < (p1 - p0) - (c1 - c0) < spent
    mean = spent / chunks
    assert abs(ticker.scale(mean, start, end) - hostspeed.REFERENCE_CHUNK_S) < 1e-12


def test_command_prints_result_line():
    out = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "algebra-ops",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 100 and result["failed"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "orbit-scan",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout == ""
