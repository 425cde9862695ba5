"""Run one benchmark workload and print its metrics as the last line.

    python3 perfbench/run.py --workload train_steady --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  With ``--trace 0`` the last line holds the
end-to-end metrics of an untraced run; with ``--trace 1`` it holds the
per-layer metrics of a run with wrappers installed, and a line before it
holds that run's end-to-end figures, so the tracing overhead shows.  The
lines before the last also record the environment.  Exits non-zero,
printing no result, if the package cannot be imported or a set-up step
fails.
"""

import contextlib
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def prepare():
    """One BLAS thread (two spin-wait and run no faster on a 2-CPU box);
    set before NumPy loads.  Then make the checkout's package importable."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "groupvec" / "__init__.py").is_file():
        sys.exit(f"perfbench: no groupvec package under {SRC}")
    sys.path.insert(0, str(SRC))


@contextlib.contextmanager
def scratch(prefix: str):
    """A fresh directory under the checkout's work area, removed on exit."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it


def environment() -> dict:
    import hashlib
    import subprocess

    import numpy as np

    from groupvec import backends

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "groupvec").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    sha = None  # not a git checkout
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10, check=True).stdout.strip()
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "backend": backends.BACKEND_NAME,
        "cpus": os.cpu_count(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    import argparse

    prepare()
    import json

    import layers
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workload, setup_metrics = workloads.WORKLOADS[args.workload]
    print(json.dumps({"env": environment()}), flush=True)
    tracer = layers.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        with scratch(f"{args.workload}-") as work:
            out = workload(args.seed, args.seconds, tracer, work)
    finally:
        if tracer is not None:
            tracer.uninstall()
    for problem in out.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    e2e = workloads.end_to_end(out)
    if tracer is None:
        metrics = e2e
    else:
        print(json.dumps({"traced_end_to_end": {k: v for k, (v, _) in e2e.items()},
                          "skipped_targets": tracer.skipped}))
        metrics = tracer.metrics(out.attempted, len(out.setup_s), setup_metrics)
        metrics.update(layers.time_kernels(args.seed))
    print(json.dumps({
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
