#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/spread.py --workload NAME [--seeds 1-10] [--seconds S]
                            [--out FILE]

For every metric it prints the median of the runs and the distance
between their first and third quartiles (``statistics.quantiles(v, n=4)``)
as a share of the median, next to the metric's bound in BENCHMARK.json,
the share of failed operations and the total run time.  ``--out`` keeps
the raw results as JSON.  Runs are sequential, one process at a time.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", type=int)
    p.add_argument("--out")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed",
               str(seed), "--seconds", str(seconds), "--trace", "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=180)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stdout, proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "elapsed_s": elapsed, **result})
        print(f"seed {seed} ({elapsed:.0f} s): " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            + f" failed={result['failed']}/{result['attempted']}"
            + ("" if result["correct"] else " INCORRECT"), flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:28s} median {med:12.6g}  IQR/median {spread:7.3f}"
              f"  bound {bounds[name]}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share: {sorted(shares)}; run time "
          f"{sum(r['elapsed_s'] for r in runs):.0f} s in total")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
