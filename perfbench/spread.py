"""Run the benchmark once per seed and report, for each end-to-end metric,
the median and the quartile spread (q3 - q1) as a share of the median,
next to the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload orbit-scan --seeds 10

The seeds are 0 to `--seeds` - 1.  The runs are sequential, one process at
a time.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload, seed):
    out = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", workload,
         "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, default=10)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    results = [run_once(spec, args.workload, s) for s in range(args.seeds)]
    report = {"workload": args.workload, "seeds": args.seeds,
              "correct": all(r["correct"] for r in results),
              "failed_per_run": [r["failed"] for r in results],
              "attempted_per_run": [r["attempted"] for r in results],
              "metrics": {}}
    for m in spec["end_to_end"]:
        s = summarize([r["metrics"][m["name"]]["value"] for r in results])
        s["bound"] = m["bound"]
        s["unit"] = m["unit"]
        report["metrics"][m["name"]] = s
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
