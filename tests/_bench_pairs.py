"""Run alternating pairs of benchmark runs in two checkouts and compare
every end-to-end metric; optionally record them all in one BENCH file.

    python tests/_bench_pairs.py --base DIR --change DIR [--workload train_refresh] \\
        [--pairs 10] [--first-seed 0] [--seconds 8] [--out BENCH_<n>.json]

Without ``--workload`` every workload in ``BENCHMARK.json`` runs, one
after the other.  Pair p runs ``perfbench/run.py --trace 0`` once in each
checkout on seed ``first_seed + p``; the base runs first in even pairs
and second in odd ones.  Every run's metrics are printed as they come.
Then, per metric, each side's median and quartiles, the number of pairs
the change won by the metric's direction in ``BENCHMARK.json`` (a tie
counts for neither side), the change's median as a share of the base's,
the base's quartile spread as a share of its median, and a verdict
against the metric's ``bound`` there:

- ``unresolved`` when the base's spread exceeds the bound and not every
  change run beats every base run: the base's own runs differ by more
  than the bound, so the medians cannot show a regression or its absence;
- otherwise ``outside bound`` when the change's median is worse than the
  base's by more than the bound (as a share of the base's median);
- otherwise ``within bound``.

With ``--out`` the script also makes, per workload, one traced run
(``--trace 1``) per side on ``first_seed``, and at the end one Tier-1
run of the change checkout under ``pytest --durations=0``, and writes one
JSON file: per workload every untraced run's end-to-end metrics with the
statistics above, each side's traced end-to-end figures, per-layer
metrics and ``skipped_targets``, and each side's environment line; and
the Tier-1 wall time with criterion 6's share of it.

Exits non-zero if a run fails or reads ``correct: false``.

The two checkouts' paths must be of equal length: ``peak_rss_mb`` moves
with where the heap lands, and that depends on the checkout's path.  Not
a test: pytest does not collect it.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path


def invoke(checkout: Path, command, workload: str, seed: int, seconds: float, trace: int) -> list[dict]:
    """The JSON lines of one ``perfbench/run.py`` run, the result last."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{checkout} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    if not lines[-1]["correct"]:
        sys.exit(f"{checkout} seed {seed}: correct is false\n{proc.stderr[-2000:]}")
    return lines


def run(checkout: Path, command, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metrics of one untraced run."""
    result = invoke(checkout, command, workload, seed, seconds, trace=0)[-1]
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive")


def summary(q: dict) -> str:
    return f"{q['median']:.4g} [{q['q1']:.4g}, {q['q3']:.4g}]"


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


def compare(pairs: list[dict], metrics: dict) -> dict:
    """Per metric: each side's median and quartiles, the change's wins, the
    ratio of the medians, the base's spread and, with a bound, the verdict."""
    stats = {}
    for name in pairs[0]["base"]:
        old = [p["base"][name] for p in pairs]
        new = [p["change"][name] for p in pairs]
        metric = metrics.get(name, {"better": "lower"})
        sign = 1 if metric["better"] == "higher" else -1
        entry = {
            "base": dict(zip(("q1", "median", "q3"), quartiles(old))),
            "change": dict(zip(("q1", "median", "q3"), quartiles(new))),
            "change_wins": sum(sign * (n - o) > 0 for o, n in zip(old, new)),
            "change_over_base": statistics.median(new) / statistics.median(old),
            "base_spread": spread(old),
        }
        if "bound" in metric:
            entry["bound"] = metric["bound"]
            entry["verdict"] = verdict(old, new, metric["better"], metric["bound"])
        stats[name] = entry
    return stats


def traced(checkout: Path, command, workload: str, seed: int, seconds: float) -> dict:
    """One traced run: its environment, traced end-to-end figures,
    ``skipped_targets`` and per-layer metrics."""
    lines = invoke(checkout, command, workload, seed, seconds, trace=1)
    out = {}
    for line in lines[:-1]:
        out.update(line)
    out["metrics"] = {name: m["value"] for name, m in lines[-1]["metrics"].items()}
    return out


def tier1(checkout: Path) -> dict:
    """Wall time of one Tier-1 run of ``checkout`` and criterion 6's share,
    from ``pytest --durations=0``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(checkout / "src"), os.environ.get("PYTHONPATH")])))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=0",
         "-p", "no:cacheprovider"],
        cwd=checkout, env=env, capture_output=True, text=True, timeout=3600,
    )
    wall = time.monotonic() - start
    c6 = sum(float(m.group(1)) for m in re.finditer(
        r"^([\d.]+)s \w+ +\S*test_criterion_6\S*$", proc.stdout, re.MULTILINE))
    return {"wall_s": round(wall, 1), "criterion_6_s": round(c6, 1),
            "criterion_6_share": round(c6 / wall, 3), "summary": proc.stdout.strip().splitlines()[-1]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", help="one workload (default: every workload)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--out", type=Path, help="write every run and statistic to this JSON file")
    args = ap.parse_args()

    base, change = args.base.resolve(), args.change.resolve()
    if len(str(base)) != len(str(change)):
        sys.exit(f"checkout paths differ in length ({base}, {change}): "
                 "peak_rss_mb would compare heap layouts")
    spec = json.loads((base / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    record = {"pairs": args.pairs, "first_seed": args.first_seed, "seconds": seconds, "workloads": {}}
    for workload in workloads:
        pairs = []
        for p in range(args.pairs):
            seed = args.first_seed + p
            order = [("base", base), ("change", change)]
            got = dict((side, run(path, spec["command"], workload, seed, seconds))
                       for side, path in (order if p % 2 == 0 else order[::-1]))
            pairs.append({"seed": seed, **got})
            print(json.dumps({"workload": workload, **pairs[-1]}), flush=True)

        stats = compare(pairs, metrics)
        print(f"{workload}, {len(pairs)} pairs, {seconds} s per run: median [quartiles]")
        for name, s in stats.items():
            line = (f"  {name}: base {summary(s['base'])}  change {summary(s['change'])}  "
                    f"change better in {s['change_wins']}/{len(pairs)}  "
                    f"change/base {s['change_over_base']:.3f}  base spread {s['base_spread']:.3f}")
            if "verdict" in s:
                line += f"  {s['verdict']} ({s['bound']})"
            print(line, flush=True)
        if args.out:
            record["workloads"][workload] = {
                "runs": pairs,
                "stats": stats,
                "traced": {side: traced(path, spec["command"], workload, args.first_seed, seconds)
                           for side, path in (("base", base), ("change", change))},
            }
    if args.out:
        record["tier1_change"] = tier1(change)
        print(json.dumps({"tier1_change": record["tier1_change"]}), flush=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
