"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads pave-search,subset-scan --seeds 1-10

For every end-to-end metric it prints the median of the runs and the
distance between their first and third quartiles as a share of that
median, next to the metric's bound from BENCHMARK.json.  Runs are
sequential; each is a separate `perfbench/run.py` process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float)
    p.add_argument("--log", help="append every run's result line here")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if args.log:
                with open(args.log, "a") as fh:
                    fh.write(json.dumps({"workload": workload, "seed": seed,
                                         **result}) + "\n")
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect result",
                      file=sys.stderr)
                return 1
            runs.append(result["metrics"])
        print(f"{workload} ({len(runs)} runs)")
        for name, bound in bounds.items():
            values = [r[name]["value"] for r in runs]
            spread = stats.quartile_spread(values)
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:16s} median {statistics.median(values):.6g}  "
                  f"spread {spread:.4f}  bound {bound}  "
                  f"share of bound {spread / bound:.2f}")
    print(f"largest spread as a share of its bound (setup_s aside): "
          f"{worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
