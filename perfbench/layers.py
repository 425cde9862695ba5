"""Per-layer tracing from outside the program, plus the kernel timings.

``Tracer.install`` replaces public functions of the ``groupvec`` modules
with timing wrappers.  A function is replaced in every module that binds
it (``cli`` calls ``query`` through its own import, ``sampling`` calls
``assign_nearest`` through its own), so each caller's lookup finds the
wrapper.  Methods are replaced on their class.  The ``backends`` package
is left alone: its kernels are timed where the layers above call them, so
a kernel's time is the whole time spent in it.  A target that no longer
exists is skipped.

Each wrapped call records its inclusive time and its self time (inclusive
minus the wrapped calls made inside it), filed under the phase it ran in.
A metric is read from the timed run and given per operation of the
workload (a step, one eval), or, if the workload names it among its
set-up metrics, read from set-up and given per set-up.  A function that
does not run in the metric's phase reads 0.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time

import numpy as np

PACKAGE = "groupvec"
# Modules whose bindings are rewritten; the kernel modules are not callers.
CALLER_MODULES = (
    "data", "encoder", "losses", "sampling", "train", "checkpoint",
    "retrieval", "metrics", "cli",
)


def _cross_mflop(a, k, out):
    (n, d), (m, _) = np.shape(a[0]), np.shape(a[1])
    return {"mflop": 3.0 * n * m * d / 1e6}


def _pairwise_mflop(a, k, out):
    n, d = np.shape(a[0])
    return {"mflop": 3.0 * n * n * d / 1e6}


def _grad_mflop(a, k, out):
    n, d = np.shape(a[0])
    return {"mflop": (2.0 * n * n * d + 2.0 * n * d) / 1e6}


def _file_mb(path):
    return os.path.getsize(path) / 1e6


# key -> (timed, extra(args, kwargs, result) -> {quantity: value})
# Untimed targets only count calls: they run millions of times per eval,
# and their time stays in the caller's self time.
TARGETS = {
    "data.synth_generate_full": (True, None),
    "data.partition_by_scale": (True, None),
    "data.read_manifest": (True, None),
    "data.SyntheticFeatureModel.features_at": (True, None),
    "data.SyntheticFeatureModel.base_features": (True, None),
    "data.BaseFeatureProvider.base_features": (True, None),
    "encoder.StudentNet.forward": (True, None),
    "encoder.StudentNet.forward_cached": (True, None),
    "encoder.StudentNet.backward": (True, None),
    "encoder.TeacherNet.embed": (True, None),
    "encoder.TeacherNet.head_embed": (True, None),
    "encoder.ema_update": (True, None),
    "losses.self_distill": (True, None),
    "losses.relaxed_contrastive": (True, None),
    "losses.total_loss": (True, None),
    "backends.cross_sqdist": (True, _cross_mflop),
    "backends.pairwise_dist": (True, _pairwise_mflop),
    "backends.pairwise_dist_grad": (True, _grad_mflop),
    "backends.assign_nearest": (True, _cross_mflop),
    "sampling.assemble_batch": (True, None),
    "sampling.refresh": (True, None),
    "sampling.knn_table": (True, None),
    "sampling.kmeans": (True, None),
    "train.train_step": (True, None),
    "train.optimizer_step": (True, None),
    "train.save_checkpoint": (True, None),
    "train.load_checkpoint": (True, None),
    "checkpoint.write_container": (True, lambda a, k, out: {"mb": _file_mb(a[0])}),
    "retrieval.embed_all": (True, None),
    "retrieval.EmbeddingStore.load": (True, None),
    "retrieval.embed_query": (True, None),
    "retrieval.query": (True, lambda a, k, out: {"hits": len(out.hits)}),
    "metrics.scale_report": (True, None),
    "metrics.mean_ap": (True, None),
    "metrics.recall_at_1": (True, None),
    "metrics.hit_test": (False, None),
    "metrics.iou": (False, None),
    "cli.cmd_eval": (True, lambda a, k, out: {"rankings_mb": _file_mb(a[0].rankings)}),
}

# Per-layer metrics: name -> (target, quantity, unit).  Quantities "ms",
# "mb", "rankings_mb" and "lloyd_iters" are per call of the target; the
# others are per operation (or per set-up, see the module docstring).
METRICS = {}


def _metric(target, quantity, unit, name=None):
    METRICS[name or f"{target}.{quantity}"] = (target, quantity, unit)


for _t in ("train.train_step", "train.optimizer_step",
           "encoder.StudentNet.forward_cached", "encoder.StudentNet.backward",
           "encoder.ema_update", "encoder.TeacherNet.embed",
           "encoder.TeacherNet.head_embed", "encoder.StudentNet.forward",
           "losses.self_distill", "losses.relaxed_contrastive", "losses.total_loss",
           "sampling.assemble_batch", "sampling.refresh", "sampling.knn_table",
           "sampling.kmeans", "data.SyntheticFeatureModel.features_at",
           "data.SyntheticFeatureModel.base_features",
           "data.BaseFeatureProvider.base_features", "retrieval.embed_query",
           "retrieval.query", "metrics.scale_report", "metrics.mean_ap",
           "metrics.recall_at_1", "cli.cmd_eval"):
    _metric(_t, "self_ms", "ms")
for _t in ("train.save_checkpoint", "train.load_checkpoint",
           "data.synth_generate_full", "data.partition_by_scale",
           "data.read_manifest", "retrieval.embed_all", "retrieval.EmbeddingStore.load"):
    _metric(_t, "ms", "ms")
for _t in ("backends.cross_sqdist", "backends.pairwise_dist",
           "backends.pairwise_dist_grad", "backends.assign_nearest"):
    _metric(_t, "calls", "count")
    _metric(_t, "self_ms", "ms")
    _metric(_t, "mflop", "MFLOP-computed")
_metric("checkpoint.write_container", "mb", "MB")
_metric("sampling.kmeans", "lloyd_iters", "count")
_metric("retrieval.query", "hits", "count")
_metric("metrics.hit_test", "calls", "count")
_metric("metrics.iou", "calls", "count")
_metric("cli.cmd_eval", "rankings_mb", "MB", name="cli.rankings.mb")

PER_CALL = {"ms", "mb", "rankings_mb", "lloyd_iters"}


def _resolve(key):
    """(owner, attribute name, original) for a target, or None if it is gone."""
    mod_name, _, rest = key.partition(".")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
    except ImportError:
        return None
    *cls_path, attr = rest.split(".")
    for part in cls_path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if raw is None:
        return None
    return owner, attr, raw


class Tracer:
    """Wrappers over the TARGETS and the call statistics they collect."""

    def __init__(self):
        self.phase = "setup"
        # (phase, target) -> {"calls", "incl", "own", extra quantities...}
        self.stats: dict[tuple[str, str], dict[str, float]] = {}
        self.counts: dict[tuple[str, str], int] = {}  # calls of untimed targets
        self._stack: list[list] = []  # [target, child seconds]
        self._undo: list[tuple[object, str, object]] = []
        self.skipped: list[str] = []

    def _add(self, target, **values):
        slot = self.stats.setdefault((self.phase, target), {})
        for q, v in values.items():
            slot[q] = slot.get(q, 0.0) + v

    def _wrap(self, key, fn, timed, extra):
        tracer = self

        def counted(*a, **k):
            counts = tracer.counts
            slot = (tracer.phase, key)
            counts[slot] = counts.get(slot, 0) + 1
            return fn(*a, **k)

        def wrapper(*a, **k):
            stack = tracer._stack
            frame = [key, 0.0]
            if key == "backends.assign_nearest" and any(f[0] == "sampling.kmeans" for f in stack):
                # each Lloyd iteration assigns every row once
                tracer._add("sampling.kmeans", lloyd_iters=1)
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*a, **k)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
            tracer._add(key, calls=1, incl=dt, own=dt - frame[1])
            if extra is not None:
                tracer._add(key, **extra(a, k, out))
            return out

        return wrapper if timed else counted

    def install(self):
        mods = [importlib.import_module(f"{PACKAGE}.{m}") for m in CALLER_MODULES]
        for key, (timed, extra) in TARGETS.items():
            found = _resolve(key)
            if found is None:
                self.skipped.append(key)
                continue
            owner, attr, raw = found
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(key, raw.__func__, timed, extra))
                else:
                    new = self._wrap(key, raw, timed, extra)
                self._set(owner, attr, new)
                continue
            new = self._wrap(key, raw, timed, extra)
            for mod in mods:
                for name, value in list(vars(mod).items()):
                    if value is raw:
                        self._set(mod, name, new)

    def _set(self, owner, attr, new):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def _slot(self, phase, target):
        values = dict(self.stats.get((phase, target), {}))
        if (phase, target) in self.counts:
            values["calls"] = self.counts[(phase, target)]
        return values

    def metrics(self, ops: int, setups: int, setup_metrics) -> dict[str, tuple[float, str]]:
        """Per-layer values; ``setup_metrics`` are read from set-up, the
        others from the timed run.  Targets that were skipped are left out."""
        out = {}
        for name, (target, quantity, unit) in METRICS.items():
            if target in self.skipped:
                continue
            if name in setup_metrics:
                values, units = self._slot("setup", target), setups
            else:
                values, units = self._slot("run", target), ops
            calls = values.get("calls", 0.0)
            if quantity in ("ms", "self_ms"):
                total = values.get("incl" if quantity == "ms" else "own", 0.0) * 1e3
            else:
                total = values.get(quantity, 0.0)
            base = calls if quantity in PER_CALL else units
            out[name] = (total / base if base else 0.0, unit)
        return out


# Kernel timings at the shapes the workloads call.  A training step feeds
# 30-row blocks (24 group rows plus 6 shared rows) of 512-d student rows
# and 1024-d teacher rows; a refresh assigns 2000 rows to 100 centroids
# at 512-d.
KERNEL_METRICS = {
    "kernels.cross_sqdist.30x1024.ms": "cross_sqdist",
    "kernels.pairwise_dist.30x512.ms": "pairwise_dist",
    "kernels.pairwise_dist_grad.30x512.ms": "pairwise_dist_grad",
    "kernels.assign_nearest.2000x512x100.ms": "assign_nearest",
}
KERNEL_BUDGET_S = 0.3


def time_kernels(seed: int) -> dict[str, tuple[float, str]]:
    """Median wall time of one call of each kernel, with no wrappers
    installed.  A kernel that no longer exists is skipped."""
    from groupvec import backends

    rng = np.random.default_rng(seed)
    x512, x1024 = rng.normal(size=(30, 512)), rng.normal(size=(30, 1024))
    e = np.sqrt(((x512[:, None, :] - x512[None, :, :]) ** 2).sum(axis=2))
    args = {
        "cross_sqdist": (x1024, x1024),
        "pairwise_dist": (x512,),
        "pairwise_dist_grad": (x512, e, rng.normal(size=e.shape)),
        "assign_nearest": (rng.normal(size=(2000, 512)), rng.normal(size=(100, 512))),
    }
    out = {}
    for name, kernel in KERNEL_METRICS.items():
        fn = getattr(backends, kernel, None)
        if fn is None:
            continue
        fn(*args[kernel])  # warm caches
        times = []
        start = time.perf_counter()
        while len(times) < 5 or time.perf_counter() - start < KERNEL_BUDGET_S:
            t0 = time.perf_counter()
            fn(*args[kernel])
            times.append(time.perf_counter() - t0)
        out[name] = (statistics.median(times) * 1e3, "ms")
    return out
