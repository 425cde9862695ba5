"""Student/teacher embedding networks with hand-written backprop.

The student is a small ReLU trunk shared by all scale groups, with one
pair of affine heads per group: the h head and the l head, both emitting
512-d embeddings by default. The teacher mirrors the trunk and heads
(updated only by EMA) and adds a fixed random projection to a wider
1024-d embedding used as the stable reference space.

Parameters live in a single flat float64 vector with a name -> slice
map, so the optimizer and EMA can treat them uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EncoderConfig:
    feature_dim: int
    groups: int = 4
    hidden_dim: int = 256
    trunk_layers: int = 2
    student_dim: int = 512
    teacher_dim: int = 1024

    def __post_init__(self):
        for name in ("feature_dim", "groups", "hidden_dim", "trunk_layers", "student_dim", "teacher_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


class Params:
    """Flat float64 parameter vector with named, shaped views."""

    def __init__(self, shapes: list[tuple[str, tuple[int, ...]]]):
        self.shapes = list(shapes)
        self._slices: dict[str, tuple[slice, tuple[int, ...]]] = {}
        offset = 0
        for name, shape in self.shapes:
            size = int(np.prod(shape))
            self._slices[name] = (slice(offset, offset + size), shape)
            offset += size
        self.data = np.zeros(offset, dtype=np.float64)

    def view(self, name: str) -> np.ndarray:
        sl, shape = self._slices[name]
        return self.data[sl].reshape(shape)

    def names(self) -> list[str]:
        return [name for name, _ in self.shapes]

    def __contains__(self, name: str) -> bool:
        return name in self._slices

    def zeros_like(self) -> "Params":
        return Params(self.shapes)

    def copy(self) -> "Params":
        out = Params(self.shapes)
        out.data[:] = self.data
        return out


def _check_input(x: np.ndarray, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != dim:
        raise ValueError(f"expected inputs of shape (n, {dim}), got {x.shape}")
    if x.size and not np.all(np.isfinite(x)):
        raise ValueError("non-finite values in encoder input")
    return x


def _trunk(params: Params, cfg: EncoderConfig, x: np.ndarray):
    """The shared ReLU trunk: ``acts`` holds the checked input and each
    layer's output (``acts[-1]`` feeds the heads), ``pre`` each layer's
    pre-activation."""
    a = _check_input(x, cfg.feature_dim)
    acts, pre = [a], []
    for layer in range(cfg.trunk_layers):
        z = _affine(params, f"trunk{layer}", a)
        pre.append(z)
        a = np.maximum(z, 0.0)
        acts.append(a)
    return acts, pre


def _affine(params: Params, name: str, a: np.ndarray) -> np.ndarray:
    return a @ params.view(f"{name}.w") + params.view(f"{name}.b")


def _check_group(cfg: EncoderConfig, group: int) -> None:
    if not 0 <= group < cfg.groups:
        raise ValueError(f"group index {group} out of range [0, {cfg.groups})")


def _shared_shapes(cfg: EncoderConfig) -> list[tuple[str, tuple[int, ...]]]:
    shapes: list[tuple[str, tuple[int, ...]]] = []
    in_dim = cfg.feature_dim
    for layer in range(cfg.trunk_layers):
        shapes.append((f"trunk{layer}.w", (in_dim, cfg.hidden_dim)))
        shapes.append((f"trunk{layer}.b", (cfg.hidden_dim,)))
        in_dim = cfg.hidden_dim
    for m in range(cfg.groups):
        shapes.append((f"head_h{m}.w", (cfg.hidden_dim, cfg.student_dim)))
        shapes.append((f"head_h{m}.b", (cfg.student_dim,)))
        shapes.append((f"head_l{m}.w", (cfg.hidden_dim, cfg.student_dim)))
        shapes.append((f"head_l{m}.b", (cfg.student_dim,)))
    return shapes


def _init_gaussian(params: Params, rng: np.random.Generator) -> None:
    for name, shape in params.shapes:
        v = params.view(name)
        if name.endswith(".w"):
            v[:] = rng.normal(0.0, 1.0 / np.sqrt(shape[0]), size=shape)
        else:
            v[:] = 0.0


class StudentNet:
    def __init__(self, cfg: EncoderConfig, params: Params | None = None):
        self.cfg = cfg
        self.params = params if params is not None else Params(_shared_shapes(cfg))

    @classmethod
    def init(cls, cfg: EncoderConfig, seed: int) -> "StudentNet":
        net = cls(cfg)
        _init_gaussian(net.params, np.random.default_rng(seed))
        # group heads start as one shared map and specialize during
        # training; distinct random heads would make cross-group
        # distances meaningless at the start
        for m in range(1, cfg.groups):
            for head in ("h", "l"):
                net.params.view(f"head_{head}{m}.w")[:] = net.params.view(f"head_{head}0.w")
                net.params.view(f"head_{head}{m}.b")[:] = net.params.view(f"head_{head}0.b")
        return net

    def head_embed(self, x: np.ndarray, group: int) -> np.ndarray:
        """Embed a block of inputs through the trunk and the group's h head
        alone: ``forward(x, group)[0]`` to the bit, without the l head."""
        _check_group(self.cfg, group)
        return _affine(self.params, f"head_h{group}", _trunk(self.params, self.cfg, x)[0][-1])

    def forward(self, x: np.ndarray, group: int):
        """Embed a block of inputs through the trunk and group's head pair."""
        f_h, f_l, _ = self.forward_cached(x, group)
        return f_h, f_l

    def forward_cached(self, x: np.ndarray, group: int):
        _check_group(self.cfg, group)
        acts, pre = _trunk(self.params, self.cfg, x)
        f_h = _affine(self.params, f"head_h{group}", acts[-1])
        f_l = _affine(self.params, f"head_l{group}", acts[-1])
        return f_h, f_l, (group, acts, pre)

    def backward(self, cache, d_fh: np.ndarray, d_fl: np.ndarray, grads: Params) -> None:
        """Accumulate parameter gradients for one forward block into grads."""
        group, acts, pre = cache
        a = acts[-1]
        grads.view(f"head_h{group}.w")[:] += a.T @ d_fh
        grads.view(f"head_h{group}.b")[:] += d_fh.sum(axis=0)
        grads.view(f"head_l{group}.w")[:] += a.T @ d_fl
        grads.view(f"head_l{group}.b")[:] += d_fl.sum(axis=0)
        da = d_fh @ self.params.view(f"head_h{group}.w").T + d_fl @ self.params.view(f"head_l{group}.w").T
        for layer in range(self.cfg.trunk_layers - 1, -1, -1):
            dz = da * (pre[layer] > 0.0)
            grads.view(f"trunk{layer}.w")[:] += acts[layer].T @ dz
            grads.view(f"trunk{layer}.b")[:] += dz.sum(axis=0)
            da = dz @ self.params.view(f"trunk{layer}.w").T


class TeacherNet:
    """EMA twin of the student plus a frozen wide projection.

    The projection has no student counterpart, so EMA never touches it;
    it is drawn once from a seeded Gaussian and stays constant.
    """

    def __init__(self, cfg: EncoderConfig, params: Params | None = None):
        self.cfg = cfg
        shapes = _shared_shapes(cfg) + [
            ("proj.w", (cfg.hidden_dim, cfg.teacher_dim)),
            ("proj.b", (cfg.teacher_dim,)),
        ]
        self.params = params if params is not None else Params(shapes)

    @classmethod
    def from_student(cls, student: StudentNet, seed: int) -> "TeacherNet":
        net = cls(student.cfg)
        for name, _ in student.params.shapes:
            net.params.view(name)[:] = student.params.view(name)
        rng = np.random.default_rng(seed)
        w = net.params.view("proj.w")
        w[:] = rng.normal(0.0, 1.0 / np.sqrt(student.cfg.hidden_dim), size=w.shape)
        return net

    def embed(self, x: np.ndarray) -> np.ndarray:
        """Wide reference embedding; no gradient path exists through it."""
        return _affine(self.params, "proj", _trunk(self.params, self.cfg, x)[0][-1])

    # the group-head embedding, through the teacher's EMA-tracked h head
    head_embed = StudentNet.head_embed


# Elements per block of the EMA pass, as in the optimizer's update.
_EMA_BLOCK = 2**15


def ema_update(teacher: TeacherNet, student: StudentNet, momentum: float) -> None:
    """theta_t <- momentum * theta_t + (1 - momentum) * theta_s on shared names.

    The student's parameters are the leading part of the teacher's flat
    vector (shared names first, in the same order, then ``proj.*``), so the
    update is one pass over that prefix in blocks of ``_EMA_BLOCK``
    elements through one block buffer.  Every element gets the operations
    of ``tv *= momentum; tv += (1 - momentum) * sv``, so the bits are those
    of the per-name form.
    """
    if not 0.0 <= momentum <= 1.0:
        raise ValueError(f"momentum must be in [0, 1], got {momentum}")
    for name, shape in student.params.shapes:
        if name not in teacher.params:
            raise ValueError(f"teacher is missing shared parameter {name}")
        tv = teacher.params.view(name)
        sv = student.params.view(name)
        if tv.shape != sv.shape:
            raise ValueError(f"shape mismatch for {name}: {tv.shape} vs {sv.shape}")
    if teacher.params.shapes[: len(student.params.shapes)] != student.params.shapes:
        raise ValueError("teacher's shared parameters are not in the student's order")
    src = student.params.data
    dst = teacher.params.data[: src.size]
    buf = np.empty(min(_EMA_BLOCK, src.size), dtype=np.float64)
    for s in range(0, src.size, _EMA_BLOCK):
        t = dst[s : s + _EMA_BLOCK]
        t *= momentum
        t += np.multiply(src[s : s + _EMA_BLOCK], 1.0 - momentum, out=buf[: t.size])
