"""Training losses on relative pairwise distances, with exact gradients.

Everything here is pure float64 array math.  Each loss returns its scalar
value together with analytic gradients with respect to the student
embeddings; the distance kernels come from ``backends``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .backends import cross_sqdist, pairwise_dist, pairwise_dist_grad, self_sqdist

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class LossConfig:
    sigma: float = 3.0
    delta: float = 1.0
    # Softmax temperature for centroid similarity rows.  Calibrated to the
    # squared-distance scale the trained head space actually produces
    # (median spread above the row minimum is a few units, tail ~12), so
    # rows stay soft instead of collapsing to near-one-hot.
    tau: float = 50.0
    epsilon_floor: float = 1e-12
    # When False the distance softmax of the second self_distill argument is
    # a frozen target; its analytic gradient is identically zero.
    full_grad: bool = False

    def __post_init__(self):
        for name in ("sigma", "delta", "tau", "epsilon_floor"):
            object.__setattr__(self, name, float(getattr(self, name)))
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")


def _relative_cached(f: np.ndarray):
    f = np.asarray(f, dtype=np.float64)
    if f.ndim != 2 or f.shape[0] < 2:
        raise ValueError("relative distances need a 2-d input with at least two rows")
    e = pairwise_dist(f)
    mu = e.mean(axis=1)
    bad = np.flatnonzero(mu == 0.0)
    if bad.size:
        raise ValueError(f"degenerate row {bad[0]}: every point coincides with it")
    d = e / mu[:, None]
    np.fill_diagonal(d, 0.0)
    return d, (f, e, mu)


def relative_distances(f: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances normalized by each row's mean distance.

    The mean includes the zero self-distance, so the result is invariant to
    rescaling all rows by a common positive factor.
    """
    return _relative_cached(f)[0]


def _relative_vjp(cache, g: np.ndarray) -> np.ndarray:
    """Backprop a cotangent on the relative-distance matrix to the rows.

    Diagonal entries of ``g`` are ignored; coincident off-diagonal pairs
    contribute zero (subgradient choice of the distance kernel).
    """
    f, e, mu = cache
    n = e.shape[0]
    g = np.asarray(g, dtype=np.float64)
    rowdot = (g * e).sum(axis=1)
    de = g / mu[:, None] - (rowdot / (n * mu * mu))[:, None]
    return pairwise_dist_grad(f, e, de)


def pair_weights(f_t: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian affinity exp(-squared distance / sigma) between rows of f_t."""
    return np.exp(-self_sqdist(f_t) / sigma)


def _teacher_weights(f_t: np.ndarray, n: int, cfg: LossConfig) -> np.ndarray:
    f_t = np.asarray(f_t, dtype=np.float64)
    if f_t.ndim != 2 or f_t.shape[0] != n:
        raise ValueError("teacher rows must match student rows")
    return pair_weights(f_t, cfg.sigma)


def _contrastive_term(rel, w: np.ndarray, cfg: LossConfig):
    """``relaxed_contrastive`` from ``_relative_cached(f)`` and the teacher
    affinities ``w``."""
    d, cache = rel
    n = d.shape[0]
    hinge = np.maximum(cfg.delta - d, 0.0)
    off = ~np.eye(n, dtype=bool)
    loss = float((w[off] * d[off] ** 2 + (1.0 - w[off]) * hinge[off] ** 2).sum() / n)
    g = np.zeros_like(d)
    g[off] = (2.0 * w[off] * d[off] - 2.0 * (1.0 - w[off]) * hinge[off]) / n
    return loss, _relative_vjp(cache, g)


def relaxed_contrastive(f: np.ndarray, f_t: np.ndarray, cfg: LossConfig):
    """Affinity-weighted pull/push loss on relative distances.

    Pairs are pulled together in proportion to the teacher affinity w and
    pushed apart (up to margin ``delta``) in proportion to 1-w.  The teacher
    rows only parameterize w; the gradient is taken with respect to ``f``.

    Returns ``(loss, d_f)``.
    """
    rel = _relative_cached(f)
    return _contrastive_term(rel, _teacher_weights(f_t, rel[0].shape[0], cfg), cfg)


def _masked_log_softmax(z: np.ndarray):
    """Row-wise softmax over off-diagonal entries.

    Returns ``(p, logp)`` with the diagonal of both set to zero so callers
    can take masked sums without spurious non-finite products.
    """
    z = z.copy()
    np.fill_diagonal(z, -np.inf)
    m = z.max(axis=1)
    ex = np.exp(z - m[:, None])
    s = ex.sum(axis=1)
    p = ex / s[:, None]
    logp = z - (m + np.log(s))[:, None]
    np.fill_diagonal(p, 0.0)
    np.fill_diagonal(logp, 0.0)
    return p, logp


def _distill_term(rel_h, rel_l, cfg: LossConfig):
    """``self_distill`` from ``_relative_cached`` of both embeddings."""
    d_h, cache_h = rel_h
    d_l, cache_l = rel_l
    if d_h.shape != d_l.shape:
        raise ValueError("embedding row counts differ")
    n = d_h.shape[0]
    p, logp = _masked_log_softmax(-d_l)
    q, logq = _masked_log_softmax(-d_h)
    r = logp - logq
    loss = float((p * r).sum() / n)
    g_h = (p - q) / n
    d_fh = _relative_vjp(cache_h, g_h)
    if cfg.full_grad:
        kl_rows = (p * r).sum(axis=1)
        g_l = p * (kl_rows[:, None] - r) / n
        d_fl = _relative_vjp(cache_l, g_l)
    else:
        d_fl = np.zeros_like(cache_l[0])
    return loss, d_fh, d_fl


def self_distill(f_h: np.ndarray, f_l: np.ndarray, cfg: LossConfig | None = None):
    """Row-wise KL between distance softmaxes of two embeddings of a batch.

    The softmax over negated relative distances of ``f_l`` is the target
    distribution; the one from ``f_h`` is matched to it.  With the default
    ``cfg.full_grad=False`` the target is frozen and ``d_f_l`` is exactly
    zero; the ``d_f_h`` gradient is identical in both modes.

    Returns ``(loss, d_f_h, d_f_l)``.
    """
    cfg = cfg if cfg is not None else LossConfig()
    return _distill_term(_relative_cached(f_h), _relative_cached(f_l), cfg)


def _centroid_sim_fwd(f: np.ndarray, c: np.ndarray, cfg: LossConfig):
    f = np.asarray(f, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] < 1:
        raise ValueError("need at least one centroid")
    if f.shape[1] != c.shape[1]:
        raise ValueError("embedding and centroid widths differ")
    z = -cross_sqdist(f, c) / cfg.tau
    m = z.max(axis=1)
    ex = np.exp(z - m[:, None])
    s = ex.sum(axis=1)
    soft = ex / s[:, None]
    floored = np.maximum(soft, cfg.epsilon_floor)
    total = floored.sum(axis=1)
    sm = floored / total[:, None]
    return sm, (f, c, soft, total, sm)


def _centroid_sim_vjp(cache, ds: np.ndarray, cfg: LossConfig) -> np.ndarray:
    f, c, soft, total, sm = cache
    inner = (ds * sm).sum(axis=1)
    dfloored = (ds - inner[:, None]) / total[:, None]
    dsoft = np.where(soft > cfg.epsilon_floor, dfloored, 0.0)
    dz = soft * (dsoft - (dsoft * soft).sum(axis=1)[:, None])
    dsq = -dz / cfg.tau
    return 2.0 * (dsq.sum(axis=1)[:, None] * f - dsq @ c)


def _ckd_with_grads(blocks: Sequence[np.ndarray], centroids: Sequence[np.ndarray], cfg: LossConfig):
    """Value and per-block gradients of the cross-group alignment term.

    ``blocks[m]`` holds group m's embeddings of the shared objects, one row
    per object in a fixed common order.
    """
    k = len(blocks)
    zeros = [np.zeros_like(np.asarray(b, dtype=np.float64)) for b in blocks]
    if k < 2:
        log.warning("cross-group alignment needs at least two groups; returning 0")
        return 0.0, zeros
    n_s = blocks[0].shape[0]
    if n_s == 0:
        log.warning("no shared objects between the two groups; pair term is 0")
        return 0.0, zeros
    sims = []
    caches = []
    for b, c in zip(blocks, centroids):
        sm, cache = _centroid_sim_fwd(b, c, cfg)
        sims.append(sm)
        caches.append(cache)
    npairs = k * (k - 1) // 2
    total = 0.0
    dsims = [np.zeros_like(sm) for sm in sims]
    for a in range(k):
        for b in range(a + 1, k):
            logq = np.log(sims[b])
            total += float(-(sims[a] * logq).sum() / n_s)
            dsims[a] -= logq / (n_s * npairs)
            dsims[b] -= sims[a] / sims[b] / (n_s * npairs)
    total /= npairs
    grads = [_centroid_sim_vjp(cache, ds, cfg) for cache, ds in zip(caches, dsims)]
    return total, grads


def total_loss(
    f_h: Sequence[np.ndarray],
    f_l: Sequence[np.ndarray],
    f_t: Sequence[np.ndarray],
    centroids: Sequence[np.ndarray],
    n_shared: int,
    cfg: LossConfig,
):
    """Full training objective over the per-group blocks of one batch.

    Per group: the distance-softmax matching term between the two student
    heads plus one affinity-weighted contrastive term per head, all three
    from one relative-distance matrix per head and one teacher affinity
    matrix, so the result is that of the public per-group losses.  Across
    two or more groups: the centroid-alignment term on the trailing
    ``n_shared`` rows of each h-head block (those rows hold the same
    objects in the same order in every group); one group has no such term.

    Returns ``(total, parts, d_f_h, d_f_l)`` where parts has keys
    ``self``, ``con_h``, ``con_l``, ``ckd`` and the gradient lists align
    with the input blocks.
    """
    k = len(f_h)
    if not (len(f_l) == len(f_t) == k):
        raise ValueError("per-group input lists must have equal length")
    if n_shared < 0:
        raise ValueError("n_shared must be non-negative")
    if n_shared > 0:
        if len(centroids) != k:
            raise ValueError("one centroid matrix per group required")
        for m, block in enumerate(f_h):
            if block.shape[0] < n_shared:
                raise ValueError(f"group {m} has fewer rows than n_shared")
    parts = {"self": 0.0, "con_h": 0.0, "con_l": 0.0, "ckd": 0.0}
    d_fh: list[np.ndarray] = []
    d_fl: list[np.ndarray] = []
    for m in range(k):
        rel_h = _relative_cached(f_h[m])
        rel_l = _relative_cached(f_l[m])
        w = _teacher_weights(f_t[m], rel_h[0].shape[0], cfg)
        sl, gh, gl = _distill_term(rel_h, rel_l, cfg)
        ch, gch = _contrastive_term(rel_h, w, cfg)
        cl, gcl = _contrastive_term(rel_l, w, cfg)
        parts["self"] += sl
        parts["con_h"] += ch
        parts["con_l"] += cl
        d_fh.append(gh + gch)
        d_fl.append(gl + gcl)
    if n_shared > 0 and k > 1:
        blocks = [np.asarray(b, dtype=np.float64)[-n_shared:] for b in f_h]
        ckd, gshared = _ckd_with_grads(blocks, centroids, cfg)
        parts["ckd"] = ckd
        for m in range(len(gshared)):
            d_fh[m][-n_shared:] += gshared[m]
    total = parts["self"] + parts["con_h"] + parts["con_l"] + parts["ckd"]
    return total, parts, d_fh, d_fl
