"""The 20-step recipe: print the sha256 of its five artifacts.

    PYTHONPATH=src python tests/_recipe.py [--check]

Runs ``synth --seed 0``, ``train --steps 20 --seed 0`` with
``[train] refresh_period = 5``, ``embed`` and ``eval --max-queries 200``
through ``cli.main`` in a temporary directory, then re-scores the
rankings with ``report`` and reports whether that reproduces
``report.tsv`` byte for byte.  It then trains the same recipe to step 12,
resumes it with ``train --resume`` to step 20 and reports whether every
artifact of the resumed run matches the uninterrupted one byte for byte.
The command line has no way to stop a 20-step run early, so the first 12
steps run through the library, as an interrupted run would have left
them.  A change that claims to keep the bits keeps these five hashes.

With ``--check`` it also compares the hashes with ``recipe_sha256.json``
next to this script, which records them with the NumPy version and the
BLAS they were measured under.  It exits non-zero if any hash differs,
and under another NumPy or BLAS it says "not comparable" and never
reports a pass: those bits need not agree across builds.  A change that
moves bits on purpose rewrites that file and says why.  The script is
not collected by pytest.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from groupvec.cli import _load_data, _train_config, build_parser, main
from groupvec.data import partition_by_scale
from groupvec.train import init_state, save_checkpoint, train_step

ARTIFACTS = ("loss.log", "checkpoint.bin", "store.bin", "rankings.tsv", "report.tsv")
RECORD = Path(__file__).with_name("recipe_sha256.json")


def _run(*argv) -> None:
    """One command through ``cli.main``; its output is shown only if it fails."""
    argv = [str(a) for a in argv]
    log = io.StringIO()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"{log.getvalue()}{' '.join(argv)}: exit {code}")


def _interrupted(out: Path, train_argv: list, steps: int) -> None:
    """Leave in ``out`` the checkpoint and loss log of a run stopped after
    ``steps`` steps."""
    args = build_parser().parse_args([str(a) for a in train_argv])
    cfg = _train_config(args)
    table, features, provider = _load_data(args.data)
    groups = partition_by_scale(table, cfg.groups)
    state = init_state(cfg, features.shape[1])
    lines = [train_step(state, groups, provider) for _ in range(steps)]
    save_checkpoint(out / "checkpoint.bin", state)
    (out / "loss.log").write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _recipe(root: Path, data: Path, config: Path, resume_at: int | None) -> tuple[dict[str, str], bool]:
    """The sha256 of each artifact of one run, and whether ``report``
    re-scores its rankings to the bytes of its ``report.tsv``."""
    out = root / ("resumed" if resume_at else "straight")
    out.mkdir()
    train = ["train", "--config", config, "--data", data, "--out", out,
             "--seed", 0, "--steps", 20]
    if resume_at:
        _interrupted(out, train, resume_at)
        train += ["--resume", out / "checkpoint.bin"]
    _run(*train)
    ckpt = out / "checkpoint.bin"
    _run("embed", "--checkpoint", ckpt, "--data", data, "--out", out / "store.bin")
    _run("eval", "--checkpoint", ckpt, "--data", data, "--store", out / "store.bin",
         "--rankings", out / "rankings.tsv", "--report", out / "report.tsv",
         "--max-queries", 200)
    _run("report", "--rankings", out / "rankings.tsv", "--data", data, "--out", out / "rescored.tsv")
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ARTIFACTS}
    return digests, (out / "rescored.tsv").read_bytes() == (out / "report.tsv").read_bytes()


def fingerprint() -> dict[str, str]:
    """The NumPy version and the BLAS that the recipe's bits depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def check(digests: dict[str, str], here: dict[str, str], record: dict) -> tuple[bool, list[str]]:
    """Compare one run's hashes, made under ``here``, with a record; a
    fingerprint that differs makes the run not comparable, never a pass."""
    then = {key: record[key] for key in here}
    if then != here:
        return False, [f"not comparable: recorded under {then}, run under {here}"]
    bad = [name for name in ARTIFACTS if digests[name] != record["sha256"][name]]
    if bad:
        return False, [f"{name}: differs from the record" for name in bad]
    return True, ["all five hashes match the record"]


def other_build() -> str | None:
    """The "not comparable" line when this NumPy or BLAS is not the one the
    record was made under, else None: bits that a test pins for one build
    need not hold under another."""
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    comparable, lines = check(dict(record["sha256"]), fingerprint(), record)
    return None if comparable else lines[0]


def run(compare: bool) -> bool:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        data = root / "data"
        data.mkdir()
        config = root / "recipe.ini"
        config.write_text("[train]\nrefresh_period = 5\n", encoding="utf-8")
        _run("synth", "--seed", 0, "--out", data)
        straight, rescored = _recipe(root, data, config, None)
        resumed, _ = _recipe(root, data, config, 12)
    for name in ARTIFACTS:
        print(f"{straight[name]}  {name}")
    same = straight == resumed
    print(f"report re-scores rankings.tsv: {'identical' if rescored else 'DIFFERENT'}")
    print(f"resumed at step 12: {'identical' if same else 'DIFFERENT'}")
    ok = same and rescored
    if compare:
        matched, lines = check(straight, fingerprint(), json.loads(RECORD.read_text(encoding="utf-8")))
        print("\n".join(lines))
        ok = ok and matched
    return ok


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Hash the five artifacts of the 20-step recipe.")
    parser.add_argument("--check", action="store_true", help=f"compare the hashes with {RECORD.name}")
    sys.exit(0 if run(parser.parse_args().check) else 1)
