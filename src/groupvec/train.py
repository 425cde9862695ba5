"""Training loop: sampler, encoder, losses, optimizer, schedule, checkpoints.

The loop is single threaded and fully deterministic for a fixed config and
corpus; a checkpoint restores every piece of mutable state (parameters,
optimizer moments, sampler tables, rng), so an interrupted run continues
bit-identically.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import read_container, read_header, write_container
from .data import ObjectTable, ScaleGroups, partition_by_scale
from .encoder import EncoderConfig, Params, StudentNet, TeacherNet, ema_update
from .losses import LossConfig, total_loss
from .sampling import Batch, CentroidBank, NeighborTable, assemble_batch, refresh


@dataclass(frozen=True)
class TrainConfig:
    steps: int
    batch: int = 120
    groups: int = 4
    clusters: int = 100
    knn: int = 5
    refresh_period: int = 1000
    n_shared: int = 6
    kmeans_iters: int = 20
    lr: float = 3e-4
    weight_decay: float = 0.01
    ema_momentum: float = 0.999
    seed: int = 0
    hidden_dim: int = 256
    trunk_layers: int = 2
    student_dim: int = 512
    teacher_dim: int = 1024
    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self):
        # an int given for a float field is stored as the float, so the
        # checkpoint header and its hash do not depend on how it was given
        for name in ("lr", "weight_decay", "ema_momentum"):
            object.__setattr__(self, name, float(getattr(self, name)))
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.steps < 0:
            raise ValueError("steps must be non-negative")
        for name in ("batch", "groups", "clusters", "knn", "refresh_period",
                     "kmeans_iters", "hidden_dim", "trunk_layers",
                     "student_dim", "teacher_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.lr <= 0 or self.weight_decay < 0 or self.n_shared < 0:
            raise ValueError("lr must be positive; decay and n_shared non-negative")
        if not 0.0 <= self.ema_momentum <= 1.0:
            raise ValueError("ema_momentum must lie in [0, 1]")

    def encoder_config(self, feature_dim: int) -> EncoderConfig:
        return EncoderConfig(
            feature_dim=feature_dim,
            groups=self.groups,
            hidden_dim=self.hidden_dim,
            trunk_layers=self.trunk_layers,
            student_dim=self.student_dim,
            teacher_dim=self.teacher_dim,
        )


def config_digest(cfg: TrainConfig) -> str:
    return hashlib.sha256(
        json.dumps(dataclasses.asdict(cfg), sort_keys=True).encode("utf-8")
    ).hexdigest()


def _config_diff(saved, requested, prefix: str = "") -> list[str]:
    """``key: old in checkpoint, new requested`` for each field that differs,
    a nested config's fields as ``loss.<key>``."""
    out = []
    for f in dataclasses.fields(saved):
        a, b = getattr(saved, f.name), getattr(requested, f.name)
        if dataclasses.is_dataclass(a):
            out += _config_diff(a, b, f"{prefix}{f.name}.")
        elif a != b:
            out.append(f"{prefix}{f.name}: {a} in checkpoint, {b} requested")
    return out


def cosine_lr(step: int, total_steps: int, base_lr: float) -> float:
    """Half-cosine decay from base_lr at step 0 to 0 at total_steps."""
    if total_steps < 1:
        raise ValueError("total_steps must be positive")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return base_lr * (1.0 + math.cos(math.pi * step / total_steps)) / 2.0


# Elements per block of the optimizer update: its six vectors' blocks stay
# in cache, where the whole-vector form streams 10 MB arrays about 15 times.
_OPT_BLOCK = 2**15
# Moment decay rates and the denominator's guard.  Checkpoints do not
# record them, so they are constants: a resumed run uses the same ones.
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class OptState:
    """First/second moment accumulators for one flat parameter vector."""

    def __init__(self, size: int):
        self.m = np.zeros(size, dtype=np.float64)
        self.v = np.zeros(size, dtype=np.float64)
        self.t = 0


def optimizer_step(
    params: Params,
    grads: Params,
    lr: float,
    weight_decay: float,
    state: OptState,
) -> Params:
    """Adaptive-moment update with bias correction and decoupled decay.

    Aborts without touching any state if the gradient is not finite.
    Works in place, over blocks of ``_OPT_BLOCK`` elements through two
    block-sized buffers, with the operations and their order of the
    expression form
    ``p -= lr * m_hat / (sqrt(v_hat) + eps); p -= lr * wd * p``, so the
    result is the same to the bit.
    """
    g = grads.data
    if not np.all(np.isfinite(g)):
        raise FloatingPointError("non-finite gradient; optimizer step aborted")
    state.t += 1
    c1 = 1.0 - _BETA1**state.t
    c2 = 1.0 - _BETA2**state.t
    a_buf = np.empty(min(_OPT_BLOCK, g.size), dtype=np.float64)
    b_buf = np.empty_like(a_buf)
    for s in range(0, g.size, _OPT_BLOCK):
        blk = slice(s, s + _OPT_BLOCK)
        gb, m, v, p = g[blk], state.m[blk], state.v[blk], params.data[blk]
        a, b = a_buf[: gb.size], b_buf[: gb.size]
        m *= _BETA1
        m += np.multiply(gb, 1.0 - _BETA1, out=a)
        v *= _BETA2
        np.multiply(gb, 1.0 - _BETA2, out=b)
        v += np.multiply(b, gb, out=b)
        np.divide(m, c1, out=a)
        a *= lr
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        b += _EPS
        p -= np.divide(a, b, out=a)
        p -= np.multiply(p, lr * weight_decay, out=a)
    return params


@dataclass
class TrainState:
    cfg: TrainConfig
    student: StudentNet
    teacher: TeacherNet
    opt: OptState
    bank: CentroidBank | None
    ntable: NeighborTable | None
    rng: np.random.Generator
    step: int


def init_state(cfg: TrainConfig, feature_dim: int) -> TrainState:
    student = StudentNet.init(cfg.encoder_config(feature_dim), seed=cfg.seed)
    teacher = TeacherNet.from_student(student, seed=cfg.seed + 1)
    return TrainState(
        cfg=cfg,
        student=student,
        teacher=teacher,
        opt=OptState(student.params.data.size),
        bank=None,
        ntable=None,
        rng=np.random.default_rng(cfg.seed),
        step=0,
    )


def _block_features(provider, batch: Batch, m: int) -> np.ndarray:
    """Group m's rows, then the shared rows, each with its own features."""
    return provider.base_features(np.concatenate([batch.group_ids[m], batch.shared_ids]))


def train_step(state: TrainState, groups: ScaleGroups, provider) -> str:
    """Run one optimization step and return its loss-log line."""
    cfg = state.cfg
    state.bank, state.ntable = refresh(
        state.step, cfg.refresh_period, state.teacher, groups, provider,
        state.bank, state.ntable, n_clusters=cfg.clusters,
        k_neighbors=cfg.knn, kmeans_iters=cfg.kmeans_iters, seed=cfg.seed,
    )
    batch = assemble_batch(groups, state.ntable, state.rng, cfg.batch, cfg.n_shared)
    f_h, f_l, f_t, caches = [], [], [], []
    for m in range(cfg.groups):
        feats = _block_features(provider, batch, m)
        f_t.append(state.teacher.embed(feats))
        h, l, cache = state.student.forward_cached(feats, m)
        f_h.append(h)
        f_l.append(l)
        caches.append(cache)
    cents = [state.bank.centroids] * cfg.groups
    total, parts, d_fh, d_fl = total_loss(f_h, f_l, f_t, cents, cfg.n_shared, cfg.loss)
    grads = state.student.params.zeros_like()
    for m in range(cfg.groups):
        state.student.backward(caches[m], d_fh[m], d_fl[m], grads)
    lr = cosine_lr(state.step, cfg.steps, cfg.lr)
    optimizer_step(state.student.params, grads, lr, cfg.weight_decay, state.opt)
    ema_update(state.teacher, state.student, cfg.ema_momentum)
    line = "\t".join(
        [str(state.step), repr(lr), repr(total)]
        + [repr(parts[key]) for key in ("self", "con_h", "con_l", "ckd")]
    )
    state.step += 1
    return line


def train(
    cfg: TrainConfig,
    table: ObjectTable,
    provider,
    state: TrainState | None = None,
    log=None,
    checkpoint_path=None,
):
    """Train until ``cfg.steps``; returns ``(state, loss_log_lines)``.

    Pass a loaded state to continue a run.  If ``checkpoint_path`` is set,
    the state is saved there on normal completion and on abort.  A
    diverging run overflows before its gradient turns non-finite; NumPy's
    overflow and invalid-value warnings are off in the loop, and the
    optimizer's non-finite-gradient error is the one signal.
    """
    groups = partition_by_scale(table, cfg.groups)
    if state is None:
        state = init_state(cfg, provider.base_features(table.ids[:1]).shape[1])
    elif diff := _config_diff(state.cfg, cfg):
        raise ValueError("resume config differs from checkpoint config: " + "; ".join(diff))
    elif state.ntable is not None and (only := np.setxor1d(state.ntable.ids, table.ids)).size:
        # the smallest id that one of the checkpoint and the corpus lacks
        oid, saved = only[0], only[0] in state.ntable.ids
        where = "checkpoint, not in the corpus" if saved else "corpus, not in the checkpoint"
        raise ValueError(f"resume corpus differs from checkpoint: object {oid} is in the {where}")
    lines: list[str] = []
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            while state.step < cfg.steps:
                line = train_step(state, groups, provider)
                lines.append(line)
                if log is not None:
                    log.write(line + "\n")
    finally:
        if checkpoint_path is not None:
            save_checkpoint(checkpoint_path, state)
    return state, lines


def save_checkpoint(path, state: TrainState) -> None:
    cfg = state.cfg
    header = {
        "format": "train-state",
        "config": json.dumps(dataclasses.asdict(cfg), sort_keys=True),
        "config_hash": config_digest(cfg),
        "feature_dim": str(state.student.cfg.feature_dim),
        "step": str(state.step),
        "rng_state": json.dumps(state.rng.bit_generator.state),
    }
    blobs = {
        "student.data": state.student.params.data,
        "teacher.data": state.teacher.params.data,
        "opt.m": state.opt.m,
        "opt.v": state.opt.v,
        "opt.t": np.array(state.opt.t, dtype=np.int64),
    }
    if state.bank is not None:
        blobs["bank.centroids"] = state.bank.centroids
        blobs["bank.step"] = np.array(state.bank.last_refresh_step, dtype=np.int64)
    if state.ntable is not None:
        blobs["nt.ids"], blobs["nt.rows"] = state.ntable.ids, state.ntable.rows
        blobs["nt.step"] = np.array(state.ntable.last_refresh_step, dtype=np.int64)
    write_container(path, header, blobs)


def _config_from_json(text: str) -> TrainConfig:
    raw = json.loads(text)
    raw["loss"] = LossConfig(**raw["loss"])
    return TrainConfig(**raw)


def _field(path, source: dict, key: str, parse=lambda value: value):
    """``parse(source[key])``, or a ValueError naming the file and the key."""
    if key not in source:
        raise ValueError(f"{path}: checkpoint has no {key!r}")
    try:
        return parse(source[key])
    except (ValueError, TypeError, KeyError) as exc:
        raise ValueError(f"{path}: bad {key!r} in checkpoint: {exc}") from None


def _header_config(path, header: dict[str, str]) -> TrainConfig:
    if header.get("format") != "train-state":
        raise ValueError(f"{path}: not a training checkpoint")
    return _field(path, header, "config", _config_from_json)


def load_config(path) -> TrainConfig:
    """The config of the checkpoint at ``path``, read from its header alone."""
    return _header_config(path, read_header(path))


def _blob(path, blobs: dict, name: str, *dims, low=None) -> np.ndarray:
    """Blob ``name``, of shape ``dims``; a dim of None matches any length.
    Without ``low`` it must be <f8; with ``low``, <i8 with each entry >= ``low``."""
    blob = _field(path, blobs, name)
    need = tuple(n if d is None else d for n, d in zip(blob.shape, dims))
    if blob.ndim != len(dims) or blob.shape != need:
        raise ValueError(f"{path}: {name} has shape {blob.shape}, expected {dims}")
    dtype = "<f8" if low is None else "<i8"
    if blob.dtype != dtype:
        raise ValueError(f"{path}: bad {name!r} in checkpoint: {blob.dtype.str} blob, {dtype} expected")
    if low is not None and (below := blob[blob < low]).size:
        raise ValueError(f"{path}: bad {name!r} in checkpoint: {below[0]} is not an integer in [{low}, 2**63)")
    return blob


def _read_checkpoint(path, names=None):
    """``(header, blobs, config, student)`` of the checkpoint at ``path``,
    with the blobs in ``names`` read (every blob when None) and the
    student's parameters checked and taken from ``student.data``."""
    header, blobs = read_container(path, names)
    cfg = _header_config(path, header)
    student = StudentNet(cfg.encoder_config(_field(path, header, "feature_dim", int)))
    # the file's arrays are fresh and owned, so they become the state as
    # they are, with no initialization to overwrite
    student.params.data = _blob(path, blobs, "student.data", student.params.data.size)
    return header, blobs, cfg, student


def load_student(path) -> tuple[TrainConfig, StudentNet]:
    """The config and the student of the checkpoint at ``path``, read from
    its header and ``student.data`` alone and checked as ``load_checkpoint``
    checks them; the other blobs are only length-checked."""
    _, _, cfg, student = _read_checkpoint(path, ("student.data",))
    return cfg, student


def load_checkpoint(path) -> TrainState:
    header, blobs, cfg, student = _read_checkpoint(path)
    shaped = functools.partial(_blob, path, blobs)
    get = functools.partial(_field, path)
    teacher = TeacherNet(student.cfg)
    teacher.params.data = shaped("teacher.data", teacher.params.data.size)
    size = student.params.data.size
    opt = OptState(0)
    opt.m, opt.v, opt.t = shaped("opt.m", size), shaped("opt.v", size), int(shaped("opt.t", low=0))
    bank = ntable = None
    if "bank.centroids" in blobs:
        bank = CentroidBank(
            centroids=shaped("bank.centroids", cfg.clusters, cfg.student_dim),
            last_refresh_step=int(shaped("bank.step", low=0)),
        )
    if "nt.ids" in blobs:
        ids = shaped("nt.ids", None, low=0)
        rows = shaped("nt.rows", ids.size, None, low=-1)
        if (stray := np.setdiff1d(rows[rows >= 0], ids)).size:
            raise ValueError(
                f"{path}: bad 'nt.rows' in checkpoint: neighbour {stray[0]} is not in 'nt.ids'"
            )
        ntable = NeighborTable(ids, rows, int(shaped("nt.step", low=0)))
    rng = np.random.default_rng(cfg.seed)
    rng.bit_generator.state = get(header, "rng_state", json.loads)
    return TrainState(
        cfg=cfg, student=student, teacher=teacher, opt=opt, bank=bank,
        ntable=ntable, rng=rng, step=get(header, "step", int),
    )
