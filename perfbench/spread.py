"""Run each workload on several seeds and report the run-to-run spread.

    python3 perfbench/spread.py [--seeds 10] [--first-seed 0] [--workloads a,b]

Reads the command, run length, workloads and bounds from BENCHMARK.json,
runs one untraced process at a time from the checkout root, and prints
for every end-to-end metric its median, quartiles and interquartile range
as a share of the median, against the metric's bound.  Every run's result line is kept in
``.perfbench_runs/``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out_dir = ROOT / ".perfbench_runs"
    out_dir.mkdir(exist_ok=True)
    log = out_dir / f"spread-{time.strftime('%Y%m%d-%H%M%S')}.jsonl"
    ok = True
    for workload in args.workloads.split(","):
        results = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(spec["run_seconds"]),
                                      "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append(result)
            with log.open("a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, "wall_s": wall,
                                     "result": result}) + "\n")
            print(f"{workload} seed {seed}: {wall:.1f}s wall, correct={result['correct']}, "
                  f"{result['failed']}/{result['attempted']} failed", flush=True)
            ok &= result["correct"]
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            verdict = "" if bound is None else (
                f"bound {bound:.2f} {'ok' if spread < bound / 3 else 'WIDE' if spread >= bound else 'over 1/3'}")
            print(f"  {workload:14s} {name:44s} median {statistics.median(values):12.5g} "
                  f"q1 {q1:12.5g} q3 {q3:12.5g} spread {spread:7.2%} {verdict}")
    print(f"runs logged to {log}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
