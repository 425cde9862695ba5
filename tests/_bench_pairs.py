"""Run alternating pairs of benchmark runs in two checkouts and compare
every end-to-end metric.

    python tests/_bench_pairs.py --base DIR --change DIR --workload train_refresh \\
        --pairs 10 [--first-seed 0] [--seconds 8]

Pair p runs ``perfbench/run.py --trace 0`` once in each checkout on seed
``first_seed + p``; the base runs first in even pairs and second in odd
ones.  Every run's metrics are printed as they come.  Then, per metric,
each side's median and quartiles, the number of pairs the change won by
the metric's direction in ``BENCHMARK.json`` (a tie counts for neither
side), the change's median as a share of the base's, the base's quartile
spread as a share of its median, and a verdict against the metric's
``bound`` there:

- ``unresolved`` when the base's spread exceeds the bound and not every
  change run beats every base run: the base's own runs differ by more
  than the bound, so the medians cannot show a regression or its absence;
- otherwise ``outside bound`` when the change's median is worse than the
  base's by more than the bound (as a share of the base's median);
- otherwise ``within bound``.

Exits non-zero if a run fails or reads ``correct: false``.

The two checkouts' paths must be of equal length: ``peak_rss_mb`` moves
with where the heap lands, and that depends on the checkout's path.  Not
a test: pytest does not collect it.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout: Path, command, workload: str, seed: int, seconds: float) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{checkout} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{checkout} seed {seed}: correct is false\n{proc.stderr[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive")


def summary(values) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def spread(values) -> float:
    """The distance between the quartiles of ``values``, as a share of their median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med


def verdict(old, new, better: str, bound: float) -> str:
    """``within bound``, ``outside bound`` or ``unresolved``: the change's
    runs ``new`` against the base's ``old`` for a metric whose ``better``
    direction and ``bound`` (a share of the base's median) are given."""
    beats_all = min(new) > max(old) if better == "higher" else max(new) < min(old)
    if spread(old) > bound and not beats_all:
        return "unresolved"
    change = statistics.median(new) / statistics.median(old) - 1
    worse_by = -change if better == "higher" else change
    return "outside bound" if worse_by > bound else "within bound"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()

    base, change = args.base.resolve(), args.change.resolve()
    if len(str(base)) != len(str(change)):
        sys.exit(f"checkout paths differ in length ({base}, {change}): "
                 "peak_rss_mb would compare heap layouts")
    spec = json.loads((base / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    pairs = []
    for p in range(args.pairs):
        seed = args.first_seed + p
        order = [("base", base), ("change", change)]
        got = dict((side, run(path, spec["command"], args.workload, seed, seconds))
                   for side, path in (order if p % 2 == 0 else order[::-1]))
        pairs.append(got)
        print(json.dumps({"seed": seed, **got}), flush=True)

    print(f"{args.workload}, {len(pairs)} pairs, {seconds} s per run: median [quartiles]")
    for name in pairs[0]["base"]:
        old = [p["base"][name] for p in pairs]
        new = [p["change"][name] for p in pairs]
        metric = metrics.get(name, {"better": "lower"})
        sign = 1 if metric["better"] == "higher" else -1
        wins = sum(sign * (n - o) > 0 for o, n in zip(old, new))
        line = (f"  {name}: base {summary(old)}  change {summary(new)}  "
                f"change better in {wins}/{len(pairs)}  "
                f"change/base {statistics.median(new) / statistics.median(old):.3f}  "
                f"base spread {spread(old):.3f}")
        if "bound" in metric:
            line += f"  {verdict(old, new, metric['better'], metric['bound'])} ({metric['bound']})"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
