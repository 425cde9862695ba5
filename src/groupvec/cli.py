"""Command-line front end: one binary, one subcommand per pipeline stage.

Corpora live in a data directory holding ``manifest.tsv`` plus
``features.npy`` with one row per manifest line.  Config files are INI
style with one section per module; command-line flags win over file
values, and the effective configuration is echoed to stderr so every run
can be reproduced from its log.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import operator
import sys
import tempfile
import typing
from pathlib import Path

import numpy as np

from .checkpoint import atomic_write
from .data import (
    BaseFeatureProvider,
    SynthConfig,
    ingest_coco,
    partition_by_scale,
    read_manifest,
    synth_generate,
    write_manifest,
)
from .forked import Child, usable_cpus
from .losses import LossConfig
from .metrics import IOU_GATES, EvalConfig, GroundTruth, ScaleReport
from .retrieval import EmbeddingStore, embed_all, query, rank
from .train import (
    TrainConfig,
    load_checkpoint,
    load_config,
    load_student,
    train,
)


def _key_types(cls, skip: tuple[str, ...] = ()) -> dict:
    """Config keys of a dataclass section: each field name and its type."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls) if f.name not in skip}


# Section key tables double as the unknown-key gate.  ``[train]`` leaves
# out the nested loss config, which has its own ``[loss]`` section;
# ``max_queries`` is an eval option, not an EvalConfig field.
SECTION_TYPES = {
    "synth": _key_types(SynthConfig),
    "train": _key_types(TrainConfig, skip=("loss",)),
    "loss": _key_types(LossConfig),
    "eval": {"topk": int, "max_queries": int},
}


class UsageError(ValueError):
    """Bad invocation: reported on stderr with exit code 2."""


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"not a boolean: {text!r}")


def read_config(path) -> dict:
    import configparser

    parser = configparser.ConfigParser(interpolation=None)  # values are read as written
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:  # its text may span several lines
        raise UsageError(f"{path}: {' '.join(str(exc).split())}") from None
    sections = {}
    for name in parser.sections():
        if name not in SECTION_TYPES:
            raise UsageError(f"{path}: unknown config section [{name}]")
        types = SECTION_TYPES[name]
        out = {}
        for key, value in parser.items(name):
            if key not in types:
                raise UsageError(f"{path}: unknown key '{key}' in [{name}]")
            kind = types[key]
            try:
                out[key] = _parse_bool(value) if kind is bool else kind(value)
            except UsageError:
                raise
            except ValueError as exc:
                raise UsageError(f"{path}: [{name}] {key}: {exc}") from exc
        sections[name] = out
    return sections


def _settings(args, section: str) -> dict:
    """The ``[section]`` keys of ``--config``, each overridden by the flag
    of the same name when it is given."""
    config = read_config(args.config) if getattr(args, "config", None) else {}
    kwargs = dict(config.get(section, {}))
    for key in SECTION_TYPES[section]:
        if getattr(args, key, None) is not None:
            kwargs[key] = getattr(args, key)
    return kwargs


def _echo_config(label: str, cfg) -> None:
    """Reproducibility log: the full effective config, one key per line."""
    if dataclasses.is_dataclass(cfg):
        cfg = dataclasses.asdict(cfg)
    for key in sorted(cfg):
        value = cfg[key]
        if isinstance(value, dict):
            for sub in sorted(value):
                print(f"{label}.{key}.{sub} = {value[sub]}", file=sys.stderr)
        else:
            print(f"{label}.{key} = {value}", file=sys.stderr)


def _require_dir(path, flag: str) -> Path:
    p = Path(path)
    if not p.is_dir():
        raise UsageError(f"{flag}: no such directory: {p}")
    return p


def _load_features(path, rows: int, what: str) -> np.ndarray:
    """The feature matrix at ``path``, one row for each of ``rows`` ``what``."""
    features = np.load(path)
    if not isinstance(features, np.ndarray) or features.ndim != 2:
        raise ValueError(f"{path}: not a 2-D feature array")
    if features.shape[0] != rows:
        raise ValueError(f"{path}: {features.shape[0]} feature rows for {rows} {what}")
    return features


def _corpus_file(data_dir, name: str) -> Path:
    p = _require_dir(data_dir, "--data") / name
    if not p.is_file():
        raise ValueError(f"{p}: missing corpus file")
    return p


def _load_table(data_dir):
    """The object table, read from the manifest alone."""
    return read_manifest(_corpus_file(data_dir, "manifest.tsv"))


def _manifest_sha256(data_dir) -> str:
    """The sha256 of the corpus's manifest, which a store records."""
    return hashlib.sha256(_corpus_file(data_dir, "manifest.tsv").read_bytes()).hexdigest()


def _load_data(data_dir):
    table = _load_table(data_dir)
    features = _load_features(_corpus_file(data_dir, "features.npy"), len(table), "objects")
    return table, features, BaseFeatureProvider.from_table(table, features)


def _write_corpus(out_dir, table, features) -> None:
    write_manifest(table, out_dir / "manifest.tsv")
    with atomic_write(out_dir / "features.npy") as fh:
        np.save(fh, np.ascontiguousarray(features, dtype=np.float64))


def _text_out(path):
    """``path`` opened for UTF-8 text with LF line ends, through
    ``atomic_write``: it is replaced whole when the block ends, or not at all."""
    return atomic_write(path, "w", encoding="utf-8", newline="\n")


def cmd_synth(args) -> int:
    cfg = SynthConfig(**_settings(args, "synth"))
    out = _require_dir(args.out, "--out")
    _echo_config("synth", cfg)
    table, features = synth_generate(cfg)
    _write_corpus(out, table, features)
    print(f"wrote {len(table)} objects to {out}", file=sys.stderr)
    return 0


def cmd_ingest(args) -> int:
    out = _require_dir(args.out, "--out")
    table = ingest_coco(args.annotations)
    features = _load_features(args.features, len(table), "annotations")
    _echo_config("ingest", {"annotations": args.annotations, "features": args.features})
    _write_corpus(out, table, features)
    print(f"wrote {len(table)} objects to {out}", file=sys.stderr)
    return 0


def _train_config(args) -> TrainConfig:
    kwargs = _settings(args, "train")
    if "steps" not in kwargs:
        raise UsageError("train: steps required (flag --steps or [train] steps)")
    return TrainConfig(**kwargs, loss=LossConfig(**_settings(args, "loss")))


def cmd_train(args) -> int:
    table, _, provider = _load_data(args.data)
    cfg = _train_config(args)
    out = _require_dir(args.out, "--out")
    state = load_checkpoint(args.resume) if args.resume else None
    # as train does, but before the log is opened, so a rejected run
    # leaves the one already in --out whole
    partition_by_scale(table, cfg.groups)
    _echo_config("train", cfg)
    mode = "a" if args.resume else "w"
    with open(out / "loss.log", mode, encoding="utf-8", newline="\n") as log:
        state, lines = train(
            cfg, table, provider, state=state, log=log, checkpoint_path=out / "checkpoint.bin"
        )
    print(f"trained to step {state.step}; {len(lines)} new log lines", file=sys.stderr)
    return 0


def cmd_embed(args) -> int:
    cfg, student = load_student(args.checkpoint)
    table, _, provider = _load_data(args.data)
    _echo_config("embed", {"checkpoint": args.checkpoint})
    groups = partition_by_scale(table, cfg.groups)
    store = embed_all(student, table, provider, groups, _manifest_sha256(args.data))
    store.save(args.out)
    print(f"embedded {store.count} objects at width {store.dim}", file=sys.stderr)
    return 0


def _parse_bbox(text: str):
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError(f"--query-bbox expects x,y,w,h, got {text!r}")
    try:
        x, y, w, h = (float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"--query-bbox: {exc}") from exc
    if not (np.isfinite((x, y, w, h)).all() and w > 0 and h > 0):
        raise UsageError(f"--query-bbox must be finite with a positive width and height, got {text!r}")
    return x, y, w, h


def _load_store(path, checkpoint, data_dir, table):
    """The store at ``path``, whose width must be the checkpoint's and
    which must be the corpus's row for row: it records the sha256 of the
    manifest in ``data_dir`` and holds ``table``'s ids in table order."""
    width = load_config(checkpoint).student_dim
    store = EmbeddingStore.load(path)
    if store.dim != width:
        raise ValueError(f"{path}: store width {store.dim} does not match checkpoint width {width}")
    same_rows = np.array_equal(store.object_ids, table.ids)
    if not same_rows or store.manifest_sha256 != _manifest_sha256(data_dir):
        raise ValueError(f"{path}: store was not embedded from the manifest in {data_dir}")
    return store


def cmd_query(args) -> int:
    topk, _ = _eval_settings(args)
    bbox = _parse_bbox(args.query_bbox)
    table = _load_table(args.data)
    rows = np.flatnonzero((table.image_ids == args.query_image) & (table.bboxes == bbox).all(axis=1))
    if rows.size == 0:
        raise ValueError(f"no object with bbox {bbox} in image {args.query_image}")
    oid = int(table.ids[rows[0]])
    store = _load_store(args.store, args.checkpoint, args.data, table)
    _echo_config("query", {"checkpoint": args.checkpoint, "object": oid, "topk": topk})
    result = query(store, store.vectors[rows[0]], topk, table, query_id=oid)
    for rank, hit in enumerate(result.hits, start=1):
        x, y, w, h = hit.bbox
        print(f"{rank}\t{hit.object_id}\t{hit.distance!r}\t{hit.image_id}\t{x!r}\t{y!r}\t{w!r}\t{h!r}")
    return 0


def _eval_settings(args):
    """``(topk, max_queries)``, each None when unset and at least 1 when set."""
    kwargs = _settings(args, "eval")
    for key in ("topk", "max_queries"):
        if kwargs.get(key, 1) < 1:
            raise UsageError(f"--{key.replace('_', '-')} must be at least 1")
    return kwargs.get("topk"), kwargs.get("max_queries")


def _ground_truth(table) -> GroundTruth:
    gt = GroundTruth.from_table(table)
    if len(gt.gallery) < len(table):
        raise ValueError("evaluation needs class labels on every object")
    return gt


def _id_prefixes(object_ids: np.ndarray) -> np.ndarray:
    """The ``"<object id>:"`` that starts each rankings pair, made once per
    store as an object array, so a ranking picks its prefixes by index."""
    return np.array([f"{oid}:" for oid in object_ids.tolist()], dtype=object)


def _ranking_pairs(prefixes: np.ndarray, dist: np.ndarray) -> str:
    """The comma-joined ``oid:repr(distance)`` pairs of one ranking, from
    its prefixes and distances in rank order: the bytes of
    ``f"{oid}:{d!r}"`` with one ``repr`` per distance."""
    return ",".join(map(operator.add, prefixes.tolist(), map(repr, dist.tolist())))


def _part_bounds(n: int) -> list[int]:
    """Bounds of the contiguous parts of ``n`` queries: one part for each
    CPU this process may fork for, and at most one per query."""
    parts = max(1, min(usable_cpus(), n))
    return [n * i // parts for i in range(parts + 1)]


def _rank_part(store, prefixes, scores, fh, rows) -> list:
    """Rank each query's own store row, write its ranking line to ``fh`` and
    score it into ``scores``; returns the scored queries, with every line
    flushed to ``fh``'s file, where a child's parent reads them.  The store
    is its corpus row for row, so a store row is also a gallery row."""
    for row in rows:
        qid = int(store.object_ids[row])
        order, dist = rank(store, store.vectors[row])
        fh.write(f"{qid}\t{_ranking_pairs(prefixes[order], dist[order])}\n")
        scores.add(qid, order)
    fh.flush()
    return scores.scored


def cmd_eval(args) -> int:
    """Rank the store for each query object, write ``rankings.tsv`` and
    score every ranking into ``report.tsv`` and stdout.

    The queries are split into contiguous parts, one per CPU
    (``_part_bounds``).  The parent ranks the first part into the
    rankings file; each other part runs the same ``_rank_part`` in a child
    forked (``forked.Child``) before any output is opened, which writes its
    lines to a temporary file of its own; the parent appends the child's
    lines and scores in part order, so the outputs have the bytes of one
    process ranking every query.  Every process streams one ranking at a
    time, so memory does not grow with queries x gallery.  A child's error
    is the parent's, and every child is reaped on every path.
    """
    topk, max_queries = _eval_settings(args)
    table = _load_table(args.data)
    gt = _ground_truth(table)
    store = _load_store(args.store, args.checkpoint, args.data, table)
    rows = range(store.count)[:max_queries]
    _echo_config(
        "eval",
        {"checkpoint": args.checkpoint, "queries": len(rows), "topk": topk},
    )
    # built here, once, and not again in each child
    for threshold in IOU_GATES.values():
        gt.pass_table(threshold)
    scores = ScaleReport(gt, EvalConfig(topk=topk))
    rank_part = functools.partial(_rank_part, store, _id_prefixes(store.object_ids), scores)
    bounds = _part_bounds(len(rows))
    with contextlib.ExitStack() as stack:
        children = []
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            # the child's lines, in a file it shares with the parent
            lines = stack.enter_context(
                tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n")
            )
            work = functools.partial(rank_part, lines, rows[lo:hi])
            children.append((lines, stack.enter_context(Child("a ranking process", work))))
        with _text_out(args.rankings) as fh:
            rank_part(fh, rows[: bounds[1]])
            for lines, child in children:
                scores.scored += child.result()
                lines.seek(0)
                fh.writelines(lines)
    report = scores.text()
    with _text_out(args.report) as fh:
        fh.write(report)
    sys.stdout.write(report)
    return 0


def _score_rankings(path, gt: GroundTruth, scores: ScaleReport) -> None:
    """Add every query of a rankings file to ``scores``; a malformed line
    is a ValueError naming the file and the line, and so is a query's
    second line."""
    seen = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            where = f"{path}: line {lineno}"
            fields = line.split("\t")
            if len(fields) != 2:
                raise ValueError(f"{where}: expected 2 fields")
            qid_text, ranked = fields
            try:
                qid = int(qid_text)
            except ValueError:
                raise ValueError(f"{where}: bad query id {qid_text!r}") from None
            if qid not in gt.query_class:
                raise ValueError(f"{where}: unknown query id {qid}")
            if qid in seen:
                raise ValueError(f"{where}: query {qid} appears twice")
            seen.add(qid)
            oids = []
            for item in ranked.split(",") if ranked else ():
                oid_text, sep, dist_text = item.partition(":")
                try:
                    if not sep:
                        raise ValueError
                    oids.append(int(oid_text))
                    float(dist_text)
                except ValueError:
                    raise ValueError(
                        f"{where}: malformed pair {item!r}, oid:distance expected"
                    ) from None
            try:
                rows = gt.rows_of(oids)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            scores.add(qid, rows)


def cmd_report(args) -> int:
    topk, _ = _eval_settings(args)
    gt = _ground_truth(_load_table(args.data))
    _echo_config("report", {"rankings": args.rankings, "topk": topk})
    scores = ScaleReport(gt, EvalConfig(topk=topk))
    _score_rankings(args.rankings, gt, scores)
    report = scores.text()
    if args.out:
        with _text_out(args.out) as fh:
            fh.write(report)
    sys.stdout.write(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupvec",
        description="Scale-grouped embedding training and object retrieval.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("ingest", help="import COCO-style annotations plus features")
    p.add_argument("--annotations", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("train", help="train a model on a corpus")
    p.add_argument("--config")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--resume", help="checkpoint to continue from")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("embed", help="embed a corpus into a store")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_embed)

    p = sub.add_parser("query", help="rank the store against one query box")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--query-image", type=int, required=True)
    p.add_argument("--query-bbox", required=True, help="x,y,w,h")
    p.add_argument("--topk", type=int, default=10)
    p.set_defaults(handler=cmd_query)

    p = sub.add_parser("eval", help="run every object as a query and score")
    p.add_argument("--config")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--rankings", required=True, help="raw ranking output file")
    p.add_argument("--report", required=True, help="per-scale report file")
    p.add_argument("--topk", type=int)
    p.add_argument("--max-queries", type=int)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("report", help="re-score a saved rankings file")
    p.add_argument("--config")
    p.add_argument("--rankings", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.add_argument("--topk", type=int)
    p.set_defaults(handler=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
