"""``tests/_recipe.py --check``: the committed record and its comparison.

These tests cover the record file, the rule that a run under another
NumPy or BLAS is not comparable, never a pass, and run the recipe once
against the record (about 13 s on a 2-CPU machine).
"""

import json

import pytest

import _recipe

RECORD = json.loads(_recipe.RECORD.read_text(encoding="utf-8"))
HERE = {"numpy": RECORD["numpy"], "blas": RECORD["blas"]}


def test_record_holds_every_artifact_and_a_fingerprint():
    assert sorted(RECORD["sha256"]) == sorted(_recipe.ARTIFACTS)
    assert all(len(h) == 64 and int(h, 16) >= 0 for h in RECORD["sha256"].values())
    assert set(_recipe.fingerprint()) == set(HERE)


def test_same_hashes_under_same_fingerprint_pass():
    ok, lines = _recipe.check(dict(RECORD["sha256"]), HERE, RECORD)
    assert ok and lines == ["all five hashes match the record"]


def test_a_differing_hash_fails_and_is_named():
    digests = dict(RECORD["sha256"], **{"rankings.tsv": "0" * 64})
    ok, lines = _recipe.check(digests, HERE, RECORD)
    assert not ok and lines == ["rankings.tsv: differs from the record"]


def test_another_fingerprint_is_not_comparable_even_with_equal_hashes():
    for key in HERE:
        other = dict(HERE, **{key: HERE[key] + "-other"})
        ok, lines = _recipe.check(dict(RECORD["sha256"]), other, RECORD)
        assert not ok and len(lines) == 1 and lines[0].startswith("not comparable")


def test_the_recipe_matches_the_record():
    comparable, lines = _recipe.check(dict(RECORD["sha256"]), _recipe.fingerprint(), RECORD)
    if not comparable:
        pytest.skip(lines[0])
    assert _recipe.run(compare=True)
