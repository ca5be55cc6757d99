"""Run the benchmark over several seeds and workloads and collect the results.

    python3 perfbench/sweep.py --out results.jsonl [--workloads a,b] [--seeds 1-10]
                               [--seconds S] [--trace 0|1]

Run from the checkout root.  Each run of perfbench/run.py is one line of
the output file: {"workload", "seed", "trace", "result"}, with result the
run's last stdout line.  Runs go one after another, never in parallel.
At the end the spread of each metric is printed as compare.py does for
one file: median, quartiles and (Q3 - Q1) / median against its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import load_benchmark, summarize

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    spec = load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--out", required=True, help="JSON-lines file to append the runs to")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    records = []
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                print(f"{workload} seed {seed}: exit status {done.returncode}", file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            record = {"workload": workload, "seed": seed, "trace": args.trace, "result": result}
            records.append(record)
            with out.open("a") as fh:
                fh.write(json.dumps(record) + "\n")
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
    summarize({"": records}, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
