"""The names the benchmark traces still exist.

``perfbench/layers.py`` wraps functions by name and skips a name that is
gone, so a rename in ``src/`` would silently drop metrics from a traced
run.  These checks read the benchmark's own tables and the metric list
of ``BENCHMARK.json``; neither is changed here.
"""

import importlib.util
import json
from pathlib import Path

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
