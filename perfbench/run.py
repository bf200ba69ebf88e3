"""nilorb benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
`src/`.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it record
the environment and what the oracles found.

With `--trace 0` the run spawns fresh processes that only set up, to time
set-up with cold module caches, then sets up itself and runs passes over
the workload's items, back to back, for `--seconds` seconds.  It reports
the end-to-end metrics: median pass wall time, percentiles over the items
of each item's median latency over the passes, median set-up time, peak
resident memory and the share of items that did not fail.  The timings
are scaled to a host of fixed speed by the reference chunks of
`hostspeed.py`, run during the same pass, item or set-up; the raw pass
times are in the detail line.

With `--trace 1` it sets up under the tracer, alternates untraced and
traced passes for `--seconds` seconds, and reports the per-layer metrics of
`layers.py` and the tracing overhead.

The oracles check the first pass, outside the timed region; later passes
must give equal outputs.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 6  # set-up-only processes per run, besides the run's own set-up

E2E_UNITS = {
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
}


def environment(args):
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "nilorb").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def setup_in_fresh_process(workload, seed):
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def timed_setup(wl, scaled=False):
    """Set-up wall time; `scaled` times it with reference chunks running
    and returns it scaled by them (see hostspeed.py)."""
    ticker = hostspeed.TICKER
    if scaled:
        start = ticker.mark()
        t0 = hostspeed.clock()
        with ticker.running():
            wl.setup()
        dt = hostspeed.clock() - t0
        dt = ticker.scale(dt, start, ticker.mark())
    else:
        t0 = perf_counter()
        wl.setup()
        dt = perf_counter() - t0
    import nilorb

    if Path(nilorb.__file__).resolve().parent != SRC / "nilorb":
        raise SystemExit(f"imported nilorb from {nilorb.__file__}, not from {SRC}")
    return dt


class Tally:
    """Oracle verdicts over the passes of one run."""

    def __init__(self, wl):
        self.wl = wl
        self.first = None
        self.first_failed = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = []

    def add(self, outputs):
        if self.first is None:
            self.first = outputs
            self.first_failed, self.wrong = self.wl.check(outputs)
        elif outputs != self.first:
            self.wrong.append("a later pass gave other outputs than the first")
        self.attempted += len(self.wl.items)
        self.failed += self.first_failed


def nearest_rank(sorted_values, q):
    """The smallest value with at least a share q of the values at or below
    it."""
    return sorted_values[math.ceil(q * len(sorted_values)) - 1]


def measure(wl, args):
    samples = [setup_in_fresh_process(args.workload, args.seed)
               for _ in range(SETUP_SAMPLES)]
    samples.append(timed_setup(wl, scaled=True))
    wl.prepare()
    tally = Tally(wl)
    ticker = hostspeed.TICKER
    walls, raw_walls, chunk_ms = [], [], []
    per_item = [[] for _ in wl.items]
    t0 = perf_counter()
    while not walls or perf_counter() - t0 < args.seconds:
        start = ticker.mark()
        with ticker.running():
            wall, spans, outputs = wl.run_pass()
        end = ticker.mark()
        walls.append(ticker.scale(wall, start, end))
        raw_walls.append(wall)
        chunk_ms.append(1000 * hostspeed.REFERENCE_CHUNK_S / ticker.scale(1, start, end))
        for times, (s, dt) in zip(per_item, spans):
            times.append(ticker.scale(dt, s, s + dt))
        tally.add(outputs)
    # an item's latency is its median over the passes
    lat_ms = sorted(1000 * statistics.median(t) for t in per_item if t)
    metrics = {
        "wall_s": statistics.median(walls),
        "item_p50_ms": nearest_rank(lat_ms, 0.5),
        "item_p90_ms": nearest_rank(lat_ms, 0.9),
        "setup_s": statistics.median(samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_rate": 1 - tally.failed / tally.attempted,
    }
    detail = {"pass_walls": walls, "raw_pass_walls": raw_walls,
              "pass_chunk_ms": chunk_ms, "items_per_pass": len(wl.items),
              "setup_samples": samples}
    return tally, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, detail


def measure_traced(wl, args):
    import layers

    tracer = layers.Tracer()
    tracer.install()
    try:
        setup_wall = timed_setup(wl)
    finally:
        tracer.uninstall()
    wl.prepare()
    tally = Tally(wl)
    # Untraced and traced passes alternate until they have taken --seconds.
    # The per-layer metrics cover set-up and the first traced pass; later
    # traced passes use throwaway tracers and only time the overhead.
    untraced, traced = [], []
    while not traced or sum(untraced) + sum(traced) < args.seconds:
        wall, _, outputs = wl.run_pass()
        untraced.append(wall)
        tally.add(outputs)
        pass_tracer = layers.Tracer() if traced else tracer
        pass_tracer.install()
        try:
            wall, _, outputs = wl.run_pass(pass_tracer)
        finally:
            pass_tracer.uninstall()
        traced.append(wall)
        tally.add(outputs)
    metrics = tracer.metrics(
        wall_s=setup_wall + traced[0],
        overhead_s=statistics.median(traced) - statistics.median(untraced))
    detail = {"untraced_pass_walls": untraced, "traced_pass_walls": traced,
              "traced_setup_wall_s": setup_wall}
    return tally, metrics, detail


def main(argv=None):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "nilorb" / "__init__.py").is_file():
        print(f"no nilorb sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": timed_setup(wl, scaled=True)}))
        return 0

    print(json.dumps({"environment": environment(args)}))
    tally, metrics, detail = (measure_traced if args.trace else measure)(wl, args)
    detail["wrong"] = tally.wrong[:20]
    detail["missed"] = [str(m) for m in getattr(wl, "missed", [])]
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
