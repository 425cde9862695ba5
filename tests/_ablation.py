"""Desk-scale ablation harness: train on a synthetic corpus split, then
score object-level retrieval on the held-out portion.

Three arms re-create the grouped-training comparison: a single-group
baseline, per-group heads without the cross-group term, and the full
configuration with shared objects coupling the groups.
"""

import numpy as np

from groupvec.data import (
    BaseFeatureProvider,
    ObjectTable,
    ScaleGroups,
    SynthConfig,
    partition_by_scale,
    synth_generate,
)
from groupvec.metrics import LEVELS, EvalConfig, GroundTruth, ScaleReport
from groupvec.retrieval import embed_all, rank
from groupvec.train import TrainConfig, train

EVAL_FRACTION = 0.25
N_QUERIES = 80

# The losses expect pair distances commensurate with sigma=3, the scale
# pretrained-backbone features produce.  The raw synthetic features are an
# order of magnitude hotter, so the harness rescales them once, up front,
# to land in the same distance regime.
FEATURE_SCALE = 0.15


def split_corpus(synth_cfg: SynthConfig, eval_fraction=EVAL_FRACTION, n_queries=N_QUERIES,
                 feature_scale=FEATURE_SCALE):
    """Deterministic train/eval object split plus a query draw.

    The split depends only on the corpus seed, so every arm trains and
    is scored on identical data.  Queries are held-out objects.  Both
    splits read the scaled corpus features through the provider that
    ``groupvec train`` uses.
    """
    table, features = synth_generate(synth_cfg)
    rng = np.random.default_rng(synth_cfg.seed + 777)
    perm = rng.permutation(np.asarray(table.ids))
    n_eval = int(round(eval_fraction * len(table)))
    if not 0 < n_queries <= n_eval:
        raise ValueError("need 0 < n_queries <= eval split size")
    eval_ids = {int(i) for i in perm[:n_eval]}
    train_table = ObjectTable([r for r in table if r.object_id not in eval_ids])
    eval_table = ObjectTable([r for r in table if r.object_id in eval_ids])
    queries = [int(i) for i in perm[:n_queries]]
    return train_table, eval_table, queries, BaseFeatureProvider.from_table(
        table, feature_scale * features
    )


# arm -> its training settings, in the order the ablation reports them
ARMS = {
    "baseline": dict(groups=1, n_shared=0),
    "heads": dict(groups=4, n_shared=0),
    "full": dict(groups=4, n_shared=6),
}


def arm_config(arm: str, steps: int, seed: int, **overrides) -> TrainConfig:
    if arm not in ARMS:
        raise ValueError(f"unknown arm {arm!r}")
    kw = dict(steps=steps, seed=seed)
    kw.update(ARMS[arm])
    kw.update(overrides)
    return TrainConfig(**kw)


def heldout_object_map(train_cfg: TrainConfig, train_table, eval_table, queries, provider) -> float:
    """Train one arm and return held-out object-level mAP, scored as
    ``groupvec eval`` scores: each query ranks the store with its own row,
    and a ``ScaleReport`` scores the ranking's gallery rows.  The mean is
    over the queries with an AP, in query order."""
    state, _ = train(train_cfg, train_table, provider)
    trained = partition_by_scale(train_table, train_cfg.groups)
    assignment = np.array(
        [trained.route_area(a) for a in eval_table.areas], dtype=np.int64
    )
    eval_groups = ScaleGroups(train_cfg.groups, assignment, trained.boundaries, eval_table)
    store = embed_all(state.student, eval_table, provider, eval_groups)
    scores = ScaleReport(GroundTruth.from_table(eval_table), EvalConfig())
    # the store and the gallery are the held-out table row for row, so a
    # query's embedding is its own table row and a ranking its gallery rows
    for qid in queries:
        row = np.searchsorted(eval_table.ids, qid)
        scores.add(qid, rank(store, store.vectors[row])[0])
    level = LEVELS.index("object")
    aps = [ap for _, by_level in scores.scored if (ap := by_level[level][1]) is not None]
    return sum(aps) / len(aps)


def arm_map(corpus_seed: int, arm: str, steps: int, train_seed: int, synth_cfg=None, **overrides) -> float:
    """Held-out object mAP of one arm on one corpus.  Each call builds its
    own corpus, so the calls of an ablation can run in separate processes."""
    cfg = synth_cfg if synth_cfg is not None else SynthConfig(seed=corpus_seed)
    train_table, eval_table, queries, provider = split_corpus(cfg)
    tc = arm_config(arm, steps=steps, seed=train_seed, **overrides)
    return heldout_object_map(tc, train_table, eval_table, queries, provider)
