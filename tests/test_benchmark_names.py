"""The names the benchmark traces still exist.

``perfbench/layers.py`` wraps functions by name and skips a name that is
gone, so a rename in ``src/`` would silently drop metrics from a traced
run.  These checks read the benchmark's own tables and the metric list
of ``BENCHMARK.json``; neither is changed here.  A short traced run of
each workload checks the same end to end.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from groupvec import backends

ROOT = Path(__file__).resolve().parent.parent


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", ROOT / "perfbench" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load_layers()


def test_every_traced_target_resolves():
    assert [key for key in layers.TARGETS if layers._resolve(key) is None] == []


def test_every_timed_kernel_and_the_backend_name_exist():
    assert isinstance(backends.BACKEND_NAME, str)
    missing = [k for k in layers.KERNEL_METRICS.values() if not callable(getattr(backends, k, None))]
    assert missing == []


def test_every_per_layer_metric_of_the_benchmark_is_produced():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    produced = set(layers.METRICS) | set(layers.KERNEL_METRICS)
    assert [m["name"] for m in bench["per_layer"] if m["name"] not in produced] == []


BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _strict_json(line):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(line, parse_constant=reject)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_traced_run_reports_every_metric(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = _strict_json(lines[-1])
    assert result["correct"] is True, proc.stderr
    assert [m["name"] for m in BENCH["per_layer"] if m["name"] not in result["metrics"]] == []
    traced = [_strict_json(line) for line in lines[:-1] if '"skipped_targets"' in line]
    assert [t["skipped_targets"] for t in traced] == [[]]
