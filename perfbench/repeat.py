"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/repeat.py --workload predict-wav --seeds 1-10 \
        [--trace 0] [--json out.json]

For every metric prints the median, the quartiles (statistics.quantiles,
n=4) and the spread: the distance between the quartiles as a share of the
median.  Runs are sequential; the machine should be otherwise idle.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", default="0")
    parser.add_argument("--json", default=None)
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", args.trace], cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            print(proc.stderr[-2000:], file=sys.stderr)
            return 1
        runs.append({"seed": seed, **json.loads(lines[-2]),
                     "result": json.loads(lines[-1])})
        print(f"seed {seed} done", file=sys.stderr)

    names = list(runs[0]["result"]["metrics"])
    summary = {name: summarize([r["result"]["metrics"][name]["value"]
                                for r in runs]) for name in names}
    for name, s in summary.items():
        print(f"{name:42s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  "
              f"q3 {s['q3']:12.6g}  spread {s['spread']:.4f}")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"workload": args.workload, "summary": summary, "runs": runs},
            indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
