"""The workloads: set-up, timed run and output checks.

Every workload drives ``groupvec`` through the public functions of its
modules, looked up on the module at call time so that the traced run's
wrappers see the calls.  Inputs are a ``SynthConfig`` corpus of 2000
objects whose seed, and the training seed, are the workload seed.
"""

from __future__ import annotations

import contextlib
import gc
import io
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from groupvec import cli, data, retrieval, train

import checks

SETUPS = 3  # set-up is repeated and its median reported
HORIZON = 1000  # cosine schedule length; the default refresh period
RESUME_STEPS = 3  # steps compared between the live and the resumed state
EVAL_QUERIES = 200


@dataclass
class Outcome:
    setup_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)  # wall time of each operation that succeeded
    items: float = 0.0  # rows trained or queries scored in the timed window
    window_s: float = 0.0  # wall time of the timed window
    peak_rss_mb: float = 0.0  # through set-up and the timed run, before the checks
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def close_window(self, start: float) -> None:
        self.window_s = time.perf_counter() - start
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    @property
    def attempted(self) -> int:
        return len(self.op_s) + self.failed


def _enter(tracer, phase: str) -> None:
    """Start a phase: the tracer, if any, files calls under it and is taken
    out for the checks; the run starts with no garbage left from set-up."""
    gc.collect()
    if tracer is not None:
        tracer.phase = phase
        if phase == "check":
            tracer.uninstall()


def _setups(build, out: Outcome):
    for _ in range(SETUPS):
        ctx = None  # free the previous set-up first: peak memory is one set-up's
        gc.collect()
        t0 = time.perf_counter()
        ctx = build()
        out.setup_s.append(time.perf_counter() - t0)
    return ctx


def _corpus(seed):
    return data.synth_generate_full(data.SynthConfig(seed=seed))


def _quiet_cli(argv) -> int:
    """cli.main with its report and config echo kept off this process's
    standard streams (the result must be the last line of stdout)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def run_cli(argv):
    """A set-up step through the command line; it must succeed."""
    rc = _quiet_cli(argv)
    if rc != 0:
        raise RuntimeError(f"groupvec {' '.join(argv)} exited {rc}")


# ---- training ---------------------------------------------------------------

def _train_setup(seed, **overrides):
    """Corpus, fresh state and step 0, whose refresh builds the bank and
    the neighbour table."""
    table, feats, model = _corpus(seed)
    cfg = train.TrainConfig(steps=HORIZON, seed=seed, **overrides)
    groups = data.partition_by_scale(table, cfg.groups)
    state = train.init_state(cfg, feats.shape[1])
    train.train_step(state, groups, model)
    return table, feats, model, groups, state


def _rows_per_step(cfg, groups) -> int:
    quota = (cfg.batch - groups.k * cfg.n_shared) // groups.k
    return sum(min(quota, size) + cfg.n_shared for size in groups.group_sizes())


def train_steady(seed, seconds, tracer, work: Path) -> Outcome:
    out = Outcome()
    table, feats, model, groups, state = _setups(lambda: _train_setup(seed), out)
    cfg = state.cfg
    ckpt = work / "checkpoint.bin"
    last_step = HORIZON - RESUME_STEPS - 1  # no refresh may fire in the run
    lines = []
    _enter(tracer, "run")
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        lines.append(train.train_step(state, groups, model))
        t1 = time.perf_counter()
        out.op_s.append(t1 - t0)
        if t1 - start >= seconds or state.step >= last_step:
            break
    train.save_checkpoint(ckpt, state)
    out.close_window(start)
    out.items = _rows_per_step(cfg, groups) * len(lines)

    _enter(tracer, "check")
    old = {name: state.teacher.params.view(name).copy() for name in state.student.params.names()}
    live = [train.train_step(state, groups, model)]
    out.problems += checks.check_ema(old, state.teacher, state.student, cfg.ema_momentum)
    live += [train.train_step(state, groups, model) for _ in range(RESUME_STEPS - 1)]
    resumed_state = train.load_checkpoint(ckpt)
    resumed = [train.train_step(resumed_state, groups, model) for _ in range(RESUME_STEPS)]
    out.problems += checks.check_finite_log(lines + live)
    out.problems += checks.check_resume(live, resumed)
    return out


def train_refresh(seed, seconds, tracer, work: Path) -> Outcome:
    out = Outcome()
    table, feats, model, groups, state = _setups(lambda: _train_setup(seed, refresh_period=1), out)
    cfg = state.cfg
    lines = []
    _enter(tracer, "run")
    start = time.perf_counter()
    while True:
        # the teacher that the step's refresh embeds with, for the check
        teacher = state.teacher.params.copy()
        t0 = time.perf_counter()
        lines.append(train.train_step(state, groups, model))
        t1 = time.perf_counter()
        out.op_s.append(t1 - t0)
        if t1 - start >= seconds:
            break
    out.close_window(start)
    out.items = _rows_per_step(cfg, groups) * len(lines)

    _enter(tracer, "check")
    out.problems += checks.check_finite_log(lines)
    if state.ntable.last_refresh_step != state.step - 1:
        out.problems.append("the last step did not refresh")
    wide = checks.teacher_wide(teacher, feats, cfg.trunk_layers)
    out.problems += checks.check_knn(state.ntable.neighbors, wide, table.ids, groups.assignment, cfg.knn)
    out.problems += checks.check_bank(state.bank.centroids, cfg.clusters, cfg.student_dim)
    return out


# ---- search -----------------------------------------------------------------

def eval_200q(seed, seconds, tracer, work: Path) -> Outcome:
    out = Outcome()
    corpus, run = work / "data", work / "run"
    corpus.mkdir()
    run.mkdir()
    ckpt, store_path = run / "checkpoint.bin", run / "store.bin"
    rankings, report = run / "rankings.tsv", run / "report.tsv"

    def build():
        run_cli(["synth", "--seed", str(seed), "--out", str(corpus)])
        run_cli(["train", "--data", str(corpus), "--out", str(run), "--steps", "2",
                 "--seed", str(seed)])
        run_cli(["embed", "--checkpoint", str(ckpt), "--data", str(corpus),
                 "--out", str(store_path)])

    _setups(build, out)
    argv = ["eval", "--checkpoint", str(ckpt), "--data", str(corpus), "--store", str(store_path),
            "--rankings", str(rankings), "--report", str(report),
            "--max-queries", str(EVAL_QUERIES)]
    _enter(tracer, "run")
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rc = _quiet_cli(argv)
        t1 = time.perf_counter()
        if rc == 0:
            out.op_s.append(t1 - t0)
        else:
            out.failed += 1
        if t1 - start >= seconds:
            break
    out.close_window(start)
    out.items = EVAL_QUERIES * len(out.op_s)

    _enter(tracer, "check")
    if out.failed:
        # a failed call may have left the output files half written
        out.problems.append(f"{out.failed} of {out.attempted} evals failed; outputs unchecked")
        return out
    brute, store, table = eval_inputs(corpus, ckpt, store_path, EVAL_QUERIES)
    out.problems += checks.check_rankings(checks.parse_rankings(rankings), brute, store.object_ids)
    out.problems += checks.check_report(report.read_text(encoding="utf-8"),
                                        expected_report(brute, store, table))
    return out


def eval_inputs(corpus: Path, ckpt: Path, store_path: Path, n_queries: int):
    """Brute-force rankings of the first ``n_queries`` queries, embedded as
    ``groupvec eval`` embeds them, with the store and the object table."""
    state = train.load_checkpoint(ckpt)
    table = data.read_manifest(corpus / "manifest.tsv")
    features = np.load(corpus / "features.npy")
    groups = data.partition_by_scale(table, state.cfg.groups)
    store = retrieval.EmbeddingStore.load(store_path)
    queries = {
        int(qid): retrieval.embed_query(state.student, groups, features[table.feature_refs[r]],
                                        table.areas[r])
        for r, qid in enumerate(table.ids[:n_queries])
    }
    return checks.brute_rankings(queries, store.vectors, store.object_ids), store, table


def expected_report(brute: dict, store, table):
    """Report cells scored here from the brute-force rankings."""
    ours = {qid: store.object_ids[order] for qid, (_, order) in brute.items()}
    classes = np.array([rec.class_id for rec in table], dtype=np.int64)
    return checks.score_cells(ours, table.ids, table.image_ids, table.bboxes, classes, table.areas)


# Per-layer metrics read from set-up rather than from the timed run: the
# set-up work that setup_s measures.  The set is fixed per workload, so a
# metric keeps one meaning whatever the program does; every other metric
# is read from the timed run only.
BUILD_LAYERS = ("data.synth_generate_full.ms", "data.partition_by_scale.ms", "retrieval.embed_all.ms")
REFRESH_LAYERS = ("sampling.refresh.self_ms", "sampling.knn_table.self_ms", "sampling.kmeans.self_ms")

# name -> (workload, per-layer metrics read from set-up)
WORKLOADS = {
    "train_steady": (train_steady, BUILD_LAYERS + REFRESH_LAYERS),
    "train_refresh": (train_refresh, BUILD_LAYERS),
    "eval_200q": (eval_200q, BUILD_LAYERS + REFRESH_LAYERS),
}


def end_to_end(out: Outcome) -> dict[str, tuple[float, str]]:
    if not out.op_s:
        raise SystemExit("perfbench: no operation succeeded, nothing to report")
    return {
        "setup_s": (statistics.median(out.setup_s), "s"),
        "op_ms_p50": (statistics.median(out.op_s) * 1e3, "ms"),
        "items_per_s": (out.items / out.window_s, "1/s"),
        "peak_rss_mb": (out.peak_rss_mb, "MB"),
    }
