"""End-to-end tests of the command-line front end.

Each test drives ``main`` in process and inspects exit codes, the two
output streams, and the artifact files, so the assertions cover exactly
what a shell user would see.
"""

import dataclasses
import json
import math
import os
import struct

import numpy as np
import pytest

from _cpus import assert_reaped, force_cpus
from _oracles import eval_scores_loops
from groupvec.checkpoint import read_container, write_container
from groupvec.cli import SECTION_TYPES, _id_prefixes, _ranking_pairs, main, read_config
from groupvec.data import (
    ObjectRecord,
    ObjectTable,
    partition_by_scale,
    read_manifest,
    write_manifest,
)
from groupvec.cli import _load_data
from groupvec.data import BaseFeatureProvider, SynthConfig, synth_generate_full
from groupvec.losses import LossConfig
from groupvec.metrics import EvalConfig, GroundTruth, ScaleReport, scale_report
from groupvec.retrieval import EmbeddingStore, embed_query, query
from groupvec.train import (
    TrainConfig,
    init_state,
    load_checkpoint,
    save_checkpoint,
    train,
    train_step,
)

SYNTH_KW = {
    "n_objects": 60,
    "objects_per_image": 4,
    "feature_dim": 10,
    "n_classes": 3,
    "seed": 3,
}
TRAIN_KW = {
    "steps": 8,
    "batch": 16,
    "groups": 2,
    "clusters": 4,
    "knn": 4,
    "refresh_period": 4,
    "n_shared": 3,
    "lr": 1e-3,
    "seed": 2,
    "hidden_dim": 16,
    "student_dim": 8,
    "teacher_dim": 12,
}
LOSS_KW = {"sigma": 3.0}


def write_ini(path, sections):
    lines = []
    for name, kv in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in kv.items())
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")
    return str(path)


def run(capsys, *args):
    rc = main([str(a) for a in args])
    out, err = capsys.readouterr()
    return rc, out, err


@pytest.fixture()
def ini(tmp_path):
    return write_ini(
        tmp_path / "cfg.ini", {"synth": SYNTH_KW, "train": TRAIN_KW, "loss": LOSS_KW}
    )


@pytest.fixture()
def data_dir(tmp_path, ini, capsys):
    d = tmp_path / "data"
    d.mkdir()
    rc, _, _ = run(capsys, "synth", "--config", ini, "--out", d)
    assert rc == 0
    return d


@pytest.fixture()
def trained(tmp_path, ini, data_dir, capsys):
    out = tmp_path / "run"
    out.mkdir()
    rc, _, _ = run(capsys, "train", "--config", ini, "--data", data_dir, "--out", out)
    assert rc == 0
    store = out / "store.bin"
    rc, _, _ = run(
        capsys, "embed", "--checkpoint", out / "checkpoint.bin",
        "--data", data_dir, "--out", store,
    )
    assert rc == 0
    return data_dir, out / "checkpoint.bin", store


class TestConfig:
    def test_key_tables_track_dataclass_fields(self):
        import dataclasses

        from groupvec.data import SynthConfig

        for section, cls in (("synth", SynthConfig), ("train", TrainConfig), ("loss", LossConfig)):
            # annotations are strings under postponed evaluation
            fields = {f.name: f.type for f in dataclasses.fields(cls)}
            if section == "train":
                assert fields.pop("loss") == "LossConfig"
            assert {key: kind.__name__ for key, kind in SECTION_TYPES[section].items()} == fields
        assert SECTION_TYPES["eval"] == {"topk": int, "max_queries": int}

    def test_unknown_key_rejected(self, tmp_path, capsys):
        ini = write_ini(tmp_path / "bad.ini", {"synth": {"bogus": 1}})
        out = tmp_path / "d"
        out.mkdir()
        rc, _, err = run(capsys, "synth", "--config", ini, "--out", out)
        assert rc == 2
        assert "bogus" in err

    def test_unknown_section_rejected(self, tmp_path):
        ini = write_ini(tmp_path / "bad.ini", {"wat": {"x": 1}})
        with pytest.raises(ValueError, match=r"\[wat\]"):
            read_config(ini)

    @pytest.mark.parametrize("text, message", [
        pytest.param("seed = 5\n", "File contains no section headers.", id="no-section"),
        pytest.param("[synth]\nseed = 5\nseed = 6\n", "option 'seed' in section 'synth' already exists",
                     id="key-twice"),
        pytest.param("[synth]\nseed\n", "[line 2]: 'seed\\n'", id="key-without-value"),
        pytest.param("[synth]\nseed = 5%\n", "[synth] seed: invalid literal for int() with base 10: '5%'",
                     id="percent"),
    ])
    def test_malformed_file_is_one_usage_line(self, tmp_path, capsys, text, message):
        ini = tmp_path / "bad.ini"
        ini.write_text(text, encoding="utf-8")
        out = tmp_path / "d"
        out.mkdir()
        rc, stdout, err = run(capsys, "synth", "--config", ini, "--out", out)
        assert (rc, stdout) == (2, "")
        [line] = err.splitlines()
        assert line.startswith(f"usage error: {ini}: ")
        assert message in line
        assert list(out.iterdir()) == []

    def test_bool_values_parse(self, tmp_path):
        ini = write_ini(tmp_path / "b.ini", {"loss": {"full_grad": "yes"}})
        assert read_config(ini)["loss"]["full_grad"] is True
        ini = write_ini(tmp_path / "b2.ini", {"loss": {"full_grad": "maybe"}})
        with pytest.raises(ValueError, match="boolean"):
            read_config(ini)

    def test_flags_beat_config_and_are_echoed(self, tmp_path, ini, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir()
        b.mkdir()
        rc, _, err = run(capsys, "synth", "--config", ini, "--seed", 9, "--out", a)
        assert rc == 0
        assert "synth.seed = 9" in err
        rc, _, _ = run(capsys, "synth", "--config", ini, "--out", b)
        assert rc == 0
        assert (a / "features.npy").read_bytes() != (b / "features.npy").read_bytes()


class TestSynth:
    def test_rerun_is_byte_identical(self, tmp_path, ini, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir()
        b.mkdir()
        for d in (a, b):
            rc, out, _ = run(capsys, "synth", "--config", ini, "--out", d)
            assert rc == 0
            assert out == ""
        assert (a / "manifest.tsv").read_bytes() == (b / "manifest.tsv").read_bytes()
        assert (a / "features.npy").read_bytes() == (b / "features.npy").read_bytes()

    def test_differing_seed_differs(self, tmp_path, ini, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir()
        b.mkdir()
        run(capsys, "synth", "--config", ini, "--seed", 1, "--out", a)
        run(capsys, "synth", "--config", ini, "--seed", 2, "--out", b)
        assert (a / "features.npy").read_bytes() != (b / "features.npy").read_bytes()

    def test_missing_out_dir_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        rc, out, err = run(capsys, "synth", "--out", missing)
        assert rc == 2
        assert out == ""
        assert str(missing) in err


class TestTrain:
    def test_zero_steps_checkpoint_is_init(self, tmp_path, ini, data_dir, capsys):
        out = tmp_path / "run"
        out.mkdir()
        rc, _, _ = run(
            capsys, "train", "--config", ini, "--data", data_dir,
            "--out", out, "--steps", 0,
        )
        assert rc == 0
        assert (out / "loss.log").read_text() == ""
        state = load_checkpoint(out / "checkpoint.bin")
        cfg = TrainConfig(**{**TRAIN_KW, "steps": 0}, loss=LossConfig(**LOSS_KW))
        fresh = init_state(cfg, SYNTH_KW["feature_dim"])
        assert state.step == 0
        assert np.array_equal(state.student.params.data, fresh.student.params.data)
        assert np.array_equal(state.teacher.params.data, fresh.teacher.params.data)

    def test_resume_reproduces_uninterrupted_run(self, tmp_path, ini, data_dir, capsys):
        whole = tmp_path / "whole"
        whole.mkdir()
        rc, _, _ = run(capsys, "train", "--config", ini, "--data", data_dir, "--out", whole)
        assert rc == 0

        # first three steps through the library, saved as if interrupted
        part = tmp_path / "part"
        part.mkdir()
        table, _, provider = _load_data(data_dir)
        cfg = TrainConfig(**TRAIN_KW, loss=LossConfig(**LOSS_KW))
        groups = partition_by_scale(table, cfg.groups)
        state = init_state(cfg, SYNTH_KW["feature_dim"])
        head = [train_step(state, groups, provider) for _ in range(3)]
        save_checkpoint(part / "checkpoint.bin", state)
        (part / "loss.log").write_text("".join(l + "\n" for l in head))

        rc, _, _ = run(
            capsys, "train", "--config", ini, "--data", data_dir,
            "--out", part, "--resume", part / "checkpoint.bin",
        )
        assert rc == 0
        assert (part / "loss.log").read_bytes() == (whole / "loss.log").read_bytes()
        assert (part / "checkpoint.bin").read_bytes() == (whole / "checkpoint.bin").read_bytes()

    def test_resume_accepts_an_equal_value_of_another_type(self, tmp_path, data_dir, capsys):
        # a library config may say lr=1 where the INI file's lr = 1 parses
        # to 1.0: the same value, so the resume goes on, and both configs
        # hold 1.0, so the resumed checkpoint is the uninterrupted one
        kw = {**TRAIN_KW, "lr": 1}
        ini = write_ini(tmp_path / "lr1.ini", {"train": kw, "loss": LOSS_KW})
        whole = tmp_path / "whole"
        whole.mkdir()
        rc, _, _ = run(capsys, "train", "--config", ini, "--data", data_dir, "--out", whole)
        assert rc == 0

        part = tmp_path / "part"
        part.mkdir()
        table, _, provider = _load_data(data_dir)
        cfg = TrainConfig(**kw, loss=LossConfig(**LOSS_KW))
        groups = partition_by_scale(table, cfg.groups)
        state = init_state(cfg, SYNTH_KW["feature_dim"])
        head = [train_step(state, groups, provider) for _ in range(3)]
        save_checkpoint(part / "checkpoint.bin", state)
        (part / "loss.log").write_text("".join(l + "\n" for l in head))

        rc, _, err = run(
            capsys, "train", "--config", ini, "--data", data_dir,
            "--out", part, "--resume", part / "checkpoint.bin",
        )
        assert rc == 0, err
        assert (part / "loss.log").read_bytes() == (whole / "loss.log").read_bytes()
        assert (part / "checkpoint.bin").read_bytes() == (whole / "checkpoint.bin").read_bytes()

    def test_command_line_trains_what_the_library_trains(self, tmp_path, ini, data_dir, capsys):
        # shared rows (n_shared 3) over two refreshes (steps 0 and 4): the
        # corpus files that synth wrote and the feature model that made them
        # give every row, shared ones too, the same features
        assert TRAIN_KW["n_shared"] > 0 and TRAIN_KW["steps"] > TRAIN_KW["refresh_period"]
        out = tmp_path / "run"
        out.mkdir()
        rc, _, _ = run(capsys, "train", "--config", ini, "--data", data_dir, "--out", out)
        assert rc == 0
        table, _, model = synth_generate_full(SynthConfig(**SYNTH_KW))
        _, lines = train(TrainConfig(**TRAIN_KW, loss=LossConfig(**LOSS_KW)), table, model)
        assert (out / "loss.log").read_text() == "".join(line + "\n" for line in lines)

    def test_resume_on_another_corpus_names_the_first_differing_object(
        self, tmp_path, ini, data_dir, capsys
    ):
        part = tmp_path / "part"
        part.mkdir()
        table, _, provider = _load_data(data_dir)
        cfg = TrainConfig(**TRAIN_KW, loss=LossConfig(**LOSS_KW))
        state = init_state(cfg, SYNTH_KW["feature_dim"])
        head = [train_step(state, partition_by_scale(table, cfg.groups), provider) for _ in range(3)]
        save_checkpoint(part / "checkpoint.bin", state)
        (part / "loss.log").write_text("".join(l + "\n" for l in head))
        before = [(part / name).read_bytes() for name in ("checkpoint.bin", "loss.log")]

        bigger = tmp_path / "bigger"
        bigger.mkdir()
        other = write_ini(tmp_path / "eighty.ini", {"synth": {**SYNTH_KW, "n_objects": 80}})
        rc, _, _ = run(capsys, "synth", "--config", other, "--out", bigger)
        assert rc == 0
        rc, out, err = run(
            capsys, "train", "--config", ini, "--data", bigger,
            "--out", part, "--resume", part / "checkpoint.bin",
        )
        assert (rc, out) == (1, "")
        assert err.splitlines()[-1] == (
            "error: resume corpus differs from checkpoint: object 60 is in the corpus, "
            "not in the checkpoint"
        )
        assert [(part / name).read_bytes() for name in ("checkpoint.bin", "loss.log")] == before

    def test_object_ids_above_2_53_train_and_resume_bit_identically(self, tmp_path, ini, capsys):
        # ids 2**60 + 1, 2**60 + 3, ... would collide in float64; the
        # checkpoint and the store keep them as <i8
        table, features, _ = synth_generate_full(SynthConfig(**SYNTH_KW))
        ids = [2**60 + 2 * i + 1 for i in range(len(table))]
        d, whole, part = tmp_path / "data", tmp_path / "whole", tmp_path / "part"
        for path in (d, whole, part):
            path.mkdir()
        write_manifest(
            ObjectTable([dataclasses.replace(r, object_id=oid) for r, oid in zip(table, ids)]),
            d / "manifest.tsv",
        )
        np.save(d / "features.npy", features)
        rc, _, err = run(capsys, "train", "--config", ini, "--data", d, "--out", whole)
        assert rc == 0, err

        # first three steps through the library, saved as if interrupted
        table, _, provider = _load_data(d)
        cfg = TrainConfig(**TRAIN_KW, loss=LossConfig(**LOSS_KW))
        state = init_state(cfg, SYNTH_KW["feature_dim"])
        head = [train_step(state, partition_by_scale(table, cfg.groups), provider) for _ in range(3)]
        save_checkpoint(part / "checkpoint.bin", state)
        (part / "loss.log").write_text("".join(l + "\n" for l in head))
        rc, _, err = run(
            capsys, "train", "--config", ini, "--data", d,
            "--out", part, "--resume", part / "checkpoint.bin",
        )
        assert rc == 0, err
        for name in ("loss.log", "checkpoint.bin"):
            assert (part / name).read_bytes() == (whole / name).read_bytes()
        assert load_checkpoint(part / "checkpoint.bin").ntable.ids.tolist() == ids

        store = tmp_path / "store.bin"
        rc, _, err = run(capsys, "embed", "--checkpoint", part / "checkpoint.bin", "--data", d, "--out", store)
        assert rc == 0, err
        assert EmbeddingStore.load(store).object_ids.tolist() == ids

    def test_neighbour_outside_the_table_is_one_error_line(self, tmp_path, ini, data_dir, capsys):
        out = tmp_path / "run"
        out.mkdir()
        rc, _, _ = run(capsys, "train", "--config", ini, "--data", data_dir, "--out", out, "--steps", 1)
        assert rc == 0
        ckpt = out / "checkpoint.bin"
        header, blobs = read_container(ckpt)
        blobs["nt.rows"][:, 0] = 99999
        write_container(ckpt, header, blobs)
        rc, stdout, err = run(
            capsys, "train", "--config", ini, "--data", data_dir, "--out", out, "--resume", ckpt,
        )
        assert (rc, stdout) == (1, "")
        assert err.splitlines() == [
            f"error: {ckpt}: bad 'nt.rows' in checkpoint: neighbour 99999 is not in 'nt.ids'"
        ]

    def test_rejected_fresh_run_keeps_the_previous_run(self, tmp_path, ini, data_dir, capsys):
        out = tmp_path / "run"
        out.mkdir()
        rc, _, _ = run(capsys, "train", "--config", ini, "--data", data_dir, "--out", out, "--steps", 4)
        assert rc == 0
        names = ("checkpoint.bin", "loss.log")
        before = [(out / name).read_bytes() for name in names]
        big = write_ini(tmp_path / "big.ini", {"train": {**TRAIN_KW, "groups": 100}})
        rc, stdout, err = run(capsys, "train", "--config", big, "--data", data_dir, "--out", out)
        assert (rc, stdout) == (1, "")
        assert err.splitlines() == ["error: group count 100 exceeds table size 60"]
        assert [(out / name).read_bytes() for name in names] == before

    def test_diverging_run_ends_in_one_error_line(self, tmp_path, data_dir, capsys):
        ini = write_ini(tmp_path / "huge.ini", {"train": {**TRAIN_KW, "lr": 1e200}})
        out = tmp_path / "run"
        out.mkdir()
        with np.errstate(all="ignore"):
            rc, _, err = run(capsys, "train", "--config", ini, "--data", data_dir, "--out", out)
        assert rc == 1
        assert "Traceback" not in err
        assert err.splitlines()[-1] == "error: non-finite gradient; optimizer step aborted"
        # the state is saved as it was when the step was refused
        steps = len((out / "loss.log").read_text().splitlines())
        assert 0 < steps < TRAIN_KW["steps"]
        assert load_checkpoint(out / "checkpoint.bin").step == steps

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_run_raises_no_numpy_warning(self, tmp_path, data_dir, capsys):
        # no np.errstate here: a NumPy RuntimeWarning anywhere in the run
        # is an exception that main does not catch
        ini = write_ini(tmp_path / "huge.ini", {"train": {**TRAIN_KW, "lr": 1e200}})
        out = tmp_path / "run"
        out.mkdir()
        rc, _, err = run(capsys, "train", "--config", ini, "--data", data_dir, "--out", out)
        assert rc == 1
        assert err.splitlines()[-1] == "error: non-finite gradient; optimizer step aborted"

    def test_singleton_group_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        # five objects in four groups: group 1 holds one, and its error
        # comes from the refresh's neighbor-table child
        ini = write_ini(tmp_path / "five.ini", {
            "synth": {**SYNTH_KW, "n_objects": 5}, "train": {**TRAIN_KW, "groups": 4},
        })
        d, out = tmp_path / "data", tmp_path / "run"
        d.mkdir()
        out.mkdir()
        assert run(capsys, "synth", "--config", ini, "--out", d)[0] == 0
        forked = force_cpus(monkeypatch, 2)
        rc, stdout, err = run(capsys, "train", "--config", ini, "--data", d, "--out", out)
        assert_reaped(forked, 1)
        assert (rc, stdout) == (1, "")
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: group 1 has fewer than two members"
        ]

    def test_bad_checkpoint_magic(self, tmp_path, ini, data_dir, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"XXXX" + b"\0" * 32)
        out = tmp_path / "run"
        out.mkdir()
        rc, _, err = run(
            capsys, "train", "--config", ini, "--data", data_dir,
            "--out", out, "--resume", bad,
        )
        assert rc == 1
        assert "MSG1 expected" in err

    @pytest.mark.parametrize("flags, section, message", [
        pytest.param(["--steps", 4], {}, "steps: 2 in checkpoint, 4 requested", id="steps"),
        pytest.param([], {"sigma": 2.0}, "loss.sigma: 3.0 in checkpoint, 2.0 requested", id="loss"),
    ])
    def test_resume_names_each_differing_key(
        self, tmp_path, ini, data_dir, capsys, flags, section, message
    ):
        out = tmp_path / "run"
        out.mkdir()
        rc, _, _ = run(capsys, "train", "--config", ini, "--data", data_dir, "--out", out, "--steps", 2)
        assert rc == 0
        other = write_ini(tmp_path / "other.ini", {
            "train": {**TRAIN_KW, "steps": 2}, "loss": {**LOSS_KW, **section},
        })
        rc, _, err = run(
            capsys, "train", "--config", other, "--data", data_dir, "--out", out,
            "--resume", out / "checkpoint.bin", *flags,
        )
        assert rc == 1
        assert err.splitlines()[-1] == f"error: resume config differs from checkpoint config: {message}"

    def test_steps_required(self, tmp_path, data_dir, capsys):
        out = tmp_path / "run"
        out.mkdir()
        rc, _, err = run(capsys, "train", "--data", data_dir, "--out", out)
        assert rc == 2
        assert "steps" in err

    def test_effective_config_echo_covers_nested_loss(self, tmp_path, ini, data_dir, capsys):
        out = tmp_path / "run"
        out.mkdir()
        rc, _, err = run(
            capsys, "train", "--config", ini, "--data", data_dir,
            "--out", out, "--steps", 0,
        )
        assert rc == 0
        assert "train.lr = 0.001" in err
        assert "train.loss.sigma = 3.0" in err


class TestNonFiniteValues:
    """A NaN or infinite config value, or a negative spread, is refused
    before any work, in one line naming its key, and nothing is written."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "key", ["zipf_exponent", "area_log_mean", "area_log_sd", "intra_class_sd", "scale_noise_gain"]
    )
    def test_synth(self, tmp_path, capsys, key, value):
        ini = write_ini(tmp_path / "bad.ini", {"synth": {**SYNTH_KW, key: value}})
        out = tmp_path / "d"
        out.mkdir()
        rc, stdout, err = run(capsys, "synth", "--config", ini, "--out", out)
        assert (rc, stdout) == (1, "")
        assert err.splitlines() == [f"error: {key} must be finite"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("key", ["area_log_sd", "intra_class_sd", "scale_noise_gain"])
    def test_synth_negative_spread(self, tmp_path, capsys, key):
        ini = write_ini(tmp_path / "bad.ini", {"synth": {**SYNTH_KW, key: -1.0}})
        out = tmp_path / "d"
        out.mkdir()
        rc, stdout, err = run(capsys, "synth", "--config", ini, "--out", out)
        assert (rc, stdout) == (1, "")
        assert err.splitlines() == [f"error: {key} must be >= 0"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("train", "lr", "nan", "lr must be finite"),
            ("train", "lr", "inf", "lr must be finite"),
            ("train", "weight_decay", "nan", "weight_decay must be finite"),
            ("train", "weight_decay", "inf", "weight_decay must be finite"),
            ("train", "ema_momentum", "nan", "ema_momentum must be finite"),
            ("loss", "sigma", "nan", "sigma must be positive and finite"),
            ("loss", "delta", "inf", "delta must be positive and finite"),
            ("loss", "tau", "inf", "tau must be positive and finite"),
            ("loss", "epsilon_floor", "nan", "epsilon_floor must be positive and finite"),
        ],
    )
    def test_train(self, tmp_path, data_dir, capsys, section, key, value, message):
        sections = {"train": TRAIN_KW, "loss": LOSS_KW}
        sections[section] = {**sections[section], key: value}
        ini = write_ini(tmp_path / "bad.ini", sections)
        out = tmp_path / "run"
        out.mkdir()
        rc, stdout, err = run(capsys, "train", "--config", ini, "--data", data_dir, "--out", out)
        assert (rc, stdout) == (1, "")
        assert err.splitlines() == [f"error: {message}"]
        assert list(out.iterdir()) == []


class TestManifestErrors:
    @pytest.mark.parametrize("column, value, message", [
        pytest.param(4, "x", "could not convert string to float: 'x'", id="float"),
        pytest.param(1, "7.5", "invalid literal for int() with base 10: '7.5'", id="int"),
        pytest.param(4, "0", "bbox width/height must be positive, got w=0.0 h=", id="record"),
        pytest.param(2, "nan", "bbox x, y, w, h and area must be finite, got (nan, ", id="x-nan"),
        pytest.param(3, "inf", "bbox x, y, w, h and area must be finite, got (", id="y-inf"),
        pytest.param(4, "inf", "bbox x, y, w, h and area must be finite, got (", id="w-inf"),
        # a finite width whose product with the height overflows
        pytest.param(4, "1e307", "must be finite, got (469.6946567503081, 2284.7129457248943, "
                     "1e+307, 23.6511015199412) and area inf", id="area-overflow"),
        pytest.param(0, str(2**63), "object 9223372036854775808: object_id must be an int64 "
                     "integer, got 9223372036854775808", id="object-id-beyond-int64"),
        pytest.param(1, str(-(2**63) - 1), "image_id must be an int64 integer, got "
                     "-9223372036854775809", id="image-id-beyond-int64"),
        pytest.param(6, str(2**64), "class_id must be an int64 integer, got "
                     "18446744073709551616", id="class-id-beyond-int64"),
    ])
    def test_bad_field_names_file_and_line(self, tmp_path, ini, data_dir, capsys, column, value, message):
        manifest = data_dir / "manifest.tsv"
        lines = manifest.read_text(encoding="utf-8").splitlines()
        fields = lines[4].split("\t")
        fields[column] = value
        lines[4] = "\t".join(fields)
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "run"
        out.mkdir()
        rc, _, err = run(capsys, "train", "--config", ini, "--data", data_dir, "--out", out)
        assert rc == 1
        assert err.splitlines()[-1].startswith(f"error: {manifest}: line 5: ")
        assert message in err.splitlines()[-1]


class TestQuery:
    def test_gallery_object_at_rank_one_distance_zero(self, trained, capsys):
        data_dir, ckpt, store = trained
        line = (data_dir / "manifest.tsv").read_text().splitlines()[7]
        fields = line.split("\t")
        oid, image_id = fields[0], fields[1]
        bbox = ",".join(fields[2:6])
        rc, out, err = run(
            capsys, "query", "--checkpoint", ckpt, "--data", data_dir,
            "--store", store, "--query-image", image_id,
            "--query-bbox", bbox, "--topk", 3,
        )
        assert rc == 0
        first = out.splitlines()[0].split("\t")
        assert first[0] == "1"
        assert first[1] == oid
        assert first[2] == "0.0"
        assert len(out.splitlines()) == 3

    def test_topk_zero_is_usage_error(self, tmp_path, capsys):
        rc, out, err = run(
            capsys, "query", "--checkpoint", tmp_path / "x", "--data", tmp_path,
            "--store", tmp_path / "y", "--query-image", 0,
            "--query-bbox", "0,0,1,1", "--topk", 0,
        )
        assert rc == 2
        assert out == ""
        assert "at least 1" in err

    def test_unmatched_bbox_errors(self, trained, capsys):
        data_dir, ckpt, store = trained
        rc, out, err = run(
            capsys, "query", "--checkpoint", ckpt, "--data", data_dir,
            "--store", store, "--query-image", 0,
            "--query-bbox", "1,2,3,4", "--topk", 3,
        )
        assert rc == 1
        assert out == ""
        assert "no object with bbox" in err

    def test_malformed_bbox_is_usage_error(self, trained, capsys):
        data_dir, ckpt, store = trained
        rc, _, err = run(
            capsys, "query", "--checkpoint", ckpt, "--data", data_dir,
            "--store", store, "--query-image", 0,
            "--query-bbox", "1,2,3", "--topk", 3,
        )
        assert rc == 2
        assert "x,y,w,h" in err


def tied_area_model(tmp_path):
    """Eight objects of widths 1, 2, 3, 3, 3, 3, 5, 6 and height 1 in two
    scale groups, an untrained checkpoint whose two h heads differ, and
    its store.  Objects 2 and 3 are in group 0, but their area 3 is group
    1's first area, so routing by area would embed them with head 1."""
    widths = (1.0, 2.0, 3.0, 3.0, 3.0, 3.0, 5.0, 6.0)
    records = [
        ObjectRecord(object_id=i, image_id=i // 2, bbox=(float(i), 0.0, w, 1.0),
                     area=w, class_id=i % 2, feature_ref=i)
        for i, w in enumerate(widths)
    ]
    table = ObjectTable(records)
    d = tmp_path / "tied"
    d.mkdir()
    write_manifest(table, d / "manifest.tsv")
    np.save(d / "features.npy", np.random.default_rng(13).normal(size=(8, 3)))
    cfg = TrainConfig(
        steps=0, batch=4, groups=2, clusters=2, knn=1, n_shared=1,
        hidden_dim=4, trunk_layers=1, student_dim=3, teacher_dim=3,
    )
    state = init_state(cfg, 3)
    state.student.params.view("head_h1.w")[:] += 1.0
    groups = partition_by_scale(table, 2)
    assert groups.assignment.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
    assert groups.route_area(3.0) == 1
    ckpt, store = tmp_path / "tied.ckpt", tmp_path / "tied.store"
    save_checkpoint(ckpt, state)
    assert main(["embed", "--checkpoint", str(ckpt), "--data", str(d), "--out", str(store)]) == 0
    return d, ckpt, store


class TestTiedAreas:
    """A query object is ranked by its own store row, which the head of
    its own group embedded."""

    @pytest.mark.parametrize("model", ["tied", "trained"])
    def test_every_eval_ranking_starts_with_its_query_at_zero(self, tmp_path, capsys, request, model):
        if model == "tied":
            d, ckpt, store = tied_area_model(tmp_path)
        else:
            d, ckpt, store = request.getfixturevalue("trained")
        rankings = tmp_path / "rankings.tsv"
        rc, _, err = run(
            capsys, "eval", "--checkpoint", ckpt, "--data", d, "--store", store,
            "--rankings", rankings, "--report", tmp_path / "report.tsv",
        )
        assert rc == 0, err
        lines = rankings.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(read_manifest(d / "manifest.tsv"))
        for line in lines:
            qid, ranked = line.split("\t")
            assert ranked.split(",")[0] == f"{qid}:0.0"

    @pytest.mark.parametrize("oid", [2, 3])
    def test_query_finds_the_object_at_zero(self, tmp_path, capsys, oid):
        d, ckpt, store = tied_area_model(tmp_path)
        rc, out, err = run(
            capsys, "query", "--checkpoint", ckpt, "--data", d, "--store", store,
            "--query-image", oid // 2, "--query-bbox", f"{oid},0,3,1", "--topk", 3,
        )
        assert rc == 0, err
        assert out.splitlines()[0].split("\t")[:3] == ["1", str(oid), "0.0"]


def fixture_corpus(tmp_path):
    """A small handmade corpus whose first two objects sit in one scale bin."""
    rng = np.random.default_rng(11)
    records = []
    for oid in range(40):
        if oid == 0:
            w, h = 40.0, 40.0
        elif oid == 1:
            w, h = 40.0, 50.0
        else:
            w, h = float(rng.uniform(5, 90)), float(rng.uniform(5, 90))
        x, y = float(rng.uniform(0, 500)), float(rng.uniform(0, 500))
        records.append(
            ObjectRecord(
                object_id=oid,
                image_id=oid // 4,
                bbox=(x, y, w, h),
                area=w * h,
                class_id=int(rng.integers(0, 3)),
                feature_ref=oid,
            )
        )
    table = ObjectTable(records)
    d = tmp_path / "fixture"
    d.mkdir()
    write_manifest(table, d / "manifest.tsv")
    np.save(d / "features.npy", rng.normal(size=(40, 12)))
    return d, table


class TestEval:
    def test_two_query_fixture_matches_brute_force(self, tmp_path, capsys):
        d, table = fixture_corpus(tmp_path)
        ini = write_ini(
            tmp_path / "cfg.ini",
            {
                "train": {
                    "steps": 5, "batch": 16, "groups": 2, "clusters": 4,
                    "knn": 4, "n_shared": 4, "lr": 1e-3, "seed": 2,
                    "hidden_dim": 16, "student_dim": 8, "teacher_dim": 12,
                }
            },
        )
        out = tmp_path / "run"
        out.mkdir()
        assert run(capsys, "train", "--config", ini, "--data", d, "--out", out)[0] == 0
        ckpt, store = out / "checkpoint.bin", out / "store.bin"
        assert run(capsys, "embed", "--checkpoint", ckpt, "--data", d, "--out", store)[0] == 0
        rankings, report = out / "rankings.tsv", out / "report.tsv"
        rc, stdout, _ = run(
            capsys, "eval", "--checkpoint", ckpt, "--data", d, "--store", store,
            "--rankings", rankings, "--report", report, "--max-queries", 2,
        )
        assert rc == 0
        assert stdout == report.read_text()

        ranked = {}
        for line in rankings.read_text().splitlines():
            qid, items = line.split("\t")
            ranked[int(qid)] = [int(it.split(":")[0]) for it in items.split(",")]
        assert set(ranked) == {0, 1}
        assert all(len(r) == 40 for r in ranked.values())

        instance = {
            "gallery": [(r.object_id, r.image_id, r.bbox, r.class_id) for r in table],
            "annotations": {},
            "queries": [0, 1],
            "rankings": ranked,
            "topk": None,
        }
        for r in table:
            instance["annotations"].setdefault(r.image_id, []).append((r.class_id, r.bbox))
        expect = eval_scores_loops(instance)

        rows = {l.split("\t")[0]: l.split("\t") for l in report.read_text().splitlines()[1:]}
        row = rows["[900,3600)"]
        assert row[1] == "2"
        assert row[2] == f"{100 * expect['object_recall_at_1']:.2f}"
        assert row[3] == f"{100 * expect['object_mean_ap']:.2f}"
        assert row[4] == f"{100 * expect['image_recall_at_1']:.2f}"
        assert row[5] == f"{100 * expect['image_mean_ap']:.2f}"
        for label, fields in rows.items():
            if label != "[900,3600)":
                assert fields[1] == "0"
                assert fields[2:] == ["", "", "", ""]

    def test_topk_zero_is_usage_error(self, tmp_path, capsys):
        rc, _, err = run(
            capsys, "eval", "--checkpoint", tmp_path / "x", "--data", tmp_path,
            "--store", tmp_path / "y", "--rankings", tmp_path / "r",
            "--report", tmp_path / "p", "--topk", 0,
        )
        assert rc == 2
        assert "at least 1" in err

    def test_report_rebins_saved_rankings(self, trained, tmp_path, capsys):
        data_dir, ckpt, store = trained
        rankings, report = tmp_path / "rankings.tsv", tmp_path / "report.tsv"
        rc, first, _ = run(
            capsys, "eval", "--checkpoint", ckpt, "--data", data_dir, "--store", store,
            "--rankings", rankings, "--report", report, "--max-queries", 12,
        )
        assert rc == 0
        rc, second, _ = run(capsys, "report", "--rankings", rankings, "--data", data_dir)
        assert rc == 0
        assert second == first
        out2 = tmp_path / "report2.tsv"
        rc, _, _ = run(
            capsys, "report", "--rankings", rankings, "--data", data_dir, "--out", out2
        )
        assert rc == 0
        assert out2.read_bytes() == report.read_bytes()


    def test_eval_bytes_equal_per_query_search_and_scale_report(
        self, trained, tmp_path, capsys, monkeypatch
    ):
        data_dir, ckpt, store_path = trained
        state = load_checkpoint(ckpt)
        table, _, provider = _load_data(data_dir)
        groups = partition_by_scale(table, state.cfg.groups)
        store = EmbeddingStore.load(store_path)
        for topk in (None, 5):
            results, lines = [], []
            for rec in table:
                emb = embed_query(
                    state.student, groups, provider.base_features(np.array([rec.object_id]))[0],
                    rec.area,
                )
                res = query(store, emb, store.count, table, query_id=rec.object_id)
                results.append(res)
                ranked = ",".join(f"{h.object_id}:{h.distance!r}" for h in res.hits)
                lines.append(f"{rec.object_id}\t{ranked}\n")
            gt = GroundTruth.from_table(table)
            want_report = scale_report(results, gt, EvalConfig(topk=topk))

            rankings, report = tmp_path / "rankings.tsv", tmp_path / "report.tsv"
            extra = [] if topk is None else ["--topk", topk]
            # in process, in two and three parts, and where fork does not exist
            for cpus, can_fork in ((1, True), (2, True), (3, True), (3, False)):
                forked = force_cpus(monkeypatch, cpus, can_fork)
                rc, out, _ = run(
                    capsys, "eval", "--checkpoint", ckpt, "--data", data_dir, "--store", store_path,
                    "--rankings", rankings, "--report", report, *extra,
                )
                monkeypatch.undo()
                assert_reaped(forked, cpus - 1 if can_fork else 0)
                assert rc == 0
                assert rankings.read_bytes() == "".join(lines).encode("utf-8")
                assert report.read_bytes() == want_report.encode("utf-8")
                assert out == want_report

    def test_ranking_pairs_write_the_bytes_of_the_format_string(self):
        # zero, distances that repr writes in exponent form, and ids at
        # and above 2**31, in an order that is not the store's
        ids = np.array([5, 2**31 - 1, 2**31, 2**40 + 3, 2**63 - 1, 0], dtype=np.int64)
        dist = np.array([0.0, 1e-05, 1.5e16, 2.0 / 3.0, 5e-324, 12.25])
        order = np.array([2, 0, 4, 1, 5, 3])
        got = _ranking_pairs(_id_prefixes(ids)[order], dist[order])
        want = ",".join(f"{oid}:{d!r}" for oid, d in zip(ids[order].tolist(), dist[order].tolist()))
        assert got == want
        assert got == (
            "2147483648:1.5e+16,5:0.0,9223372036854775807:5e-324,2147483647:1e-05,"
            "0:12.25,1099511627779:0.6666666666666666"
        )

    @pytest.mark.parametrize(
        "bad_line, message",
        [
            ("1\t2:0.5,3;0.7", "line 2: malformed pair '3;0.7'"),
            ("1\t2:0.5,999:0.7", "line 2: object 999 is not in the gallery"),
            ("1\t2:0.5,99999999999999999999:0.7", "line 2: object id outside the int64 range"),
            ("1\t2:0.5,3:far", "line 2: malformed pair '3:far'"),
            ("555\t2:0.5", "line 2: unknown query id 555"),
            ("0\t2:0.5,1:0.75", "line 2: query 0 appears twice"),
        ],
    )
    def test_report_names_file_and_line_of_bad_rankings(
        self, data_dir, tmp_path, capsys, bad_line, message
    ):
        rankings = tmp_path / "rankings.tsv"
        rankings.write_text(f"0\t1:0.25,2:0.5\n{bad_line}\n", encoding="utf-8")
        rc, out, err = run(capsys, "report", "--rankings", rankings, "--data", data_dir)
        assert rc == 1
        assert out == ""
        assert f"error: {rankings}: {message}" in err


def tiny_model(tmp_path):
    """A four-object corpus, an untrained two-wide checkpoint and its store."""
    records = [
        ObjectRecord(
            object_id=i, image_id=i // 2, bbox=(0.0, 0.0, 1.0 + i, 2.0),
            area=(1.0 + i) * 2.0, class_id=i % 2, feature_ref=i,
        )
        for i in range(4)
    ]
    d = tmp_path / "tiny"
    d.mkdir()
    write_manifest(ObjectTable(records), d / "manifest.tsv")
    np.save(d / "features.npy", np.arange(8.0).reshape(4, 2))
    cfg = TrainConfig(
        steps=0, batch=4, groups=2, clusters=2, knn=1, n_shared=1,
        hidden_dim=2, trunk_layers=1, student_dim=2, teacher_dim=2,
    )
    ckpt, store = tmp_path / "tiny.ckpt", tmp_path / "tiny.store"
    save_checkpoint(ckpt, init_state(cfg, 2))
    assert main(["embed", "--checkpoint", str(ckpt), "--data", str(d), "--out", str(store)]) == 0
    return d, ckpt, store


def _reading(what, d, ckpt, store, tmp_path) -> list:
    """A command that reads the store after a checkpoint's header (``eval``,
    whose store-width check reads the header before the store); one that
    reads every blob of the checkpoint first (``train --resume``, for
    ``"every blob"``); or one that walks the whole checkpoint first but
    reads only its header and ``student.data`` (``embed``)."""
    if what == "store":
        return ["eval", "--checkpoint", ckpt, "--data", d, "--store", store,
                "--rankings", tmp_path / "r.tsv", "--report", tmp_path / "p.tsv"]
    if what == "every blob":
        out = tmp_path / "resumed"
        out.mkdir(exist_ok=True)
        return ["train", "--resume", ckpt, "--data", d, "--out", out, "--steps", 1]
    return ["embed", "--checkpoint", ckpt, "--data", d, "--out", tmp_path / "x"]


class TestTruncatedFiles:
    def _assert_truncated(self, capsys, path, what, argv):
        rc, out, err = run(capsys, *argv)
        assert rc == 1
        assert out == ""
        assert err.splitlines() == [f"error: {path}: truncated {what}"]

    def test_every_cut_of_a_checkpoint(self, tmp_path, capsys):
        d, ckpt, _ = tiny_model(tmp_path)
        capsys.readouterr()
        raw = ckpt.read_bytes()
        cut = tmp_path / "cut.ckpt"
        for size in range(len(raw)):
            cut.write_bytes(raw[:size])
            self._assert_truncated(
                capsys, cut, "checkpoint", _reading("checkpoint", d, cut, None, tmp_path)
            )

    def test_every_cut_of_a_store(self, tmp_path, capsys):
        d, ckpt, store = tiny_model(tmp_path)
        capsys.readouterr()
        raw = store.read_bytes()
        cut = tmp_path / "cut.store"
        for size in range(len(raw)):
            cut.write_bytes(raw[:size])
            self._assert_truncated(capsys, cut, "store", _reading("store", d, ckpt, cut, tmp_path))

    @pytest.mark.parametrize("field, value", [
        ("hlen", 2**62), ("nblobs", 2**32 - 1), ("nlen", 2**16 - 1), ("ndim", 2**8 - 1),
        ("dim", 2**62), ("dim", 2**63 + 5), ("store_dim", 2**32 - 1), ("store_count", 2**62),
        ("store_hlen", 2**62), ("store_nblobs", 2**32 - 1), ("store_nlen", 2**16 - 1),
        ("store_ndim", 2**8 - 1),
    ])
    def test_huge_length_field(self, tmp_path, capsys, field, value):
        """A length field past the file's end is a truncation: no huge
        allocation and no integer overflow reach the user."""
        d, ckpt, store = tiny_model(tmp_path)
        capsys.readouterr()
        what, name = LENGTH_FIELDS[field]
        path = store if what == "store" else ckpt
        raw = bytearray(path.read_bytes())
        offset, fmt = _length_fields(raw)[name]
        struct.pack_into(fmt, raw, offset, value)
        path.write_bytes(bytes(raw))
        self._assert_truncated(capsys, path, what, _reading(what, d, ckpt, store, tmp_path))


# field -> the file and the length field of ``_length_fields`` it names: the
# checkpoint's first blob is opt.m, and the store's ids (its row count)
# come before its vectors (rows x width)
LENGTH_FIELDS = {
    "hlen": ("checkpoint", "hlen"), "nblobs": ("checkpoint", "nblobs"),
    "nlen": ("checkpoint", "opt.m nlen"), "ndim": ("checkpoint", "opt.m ndim"),
    "dim": ("checkpoint", "opt.m dim 0"),
    "store_hlen": ("store", "hlen"), "store_nblobs": ("store", "nblobs"),
    "store_nlen": ("store", "ids nlen"), "store_ndim": ("store", "ids ndim"),
    "store_count": ("store", "ids dim 0"), "store_dim": ("store", "vectors dim 1"),
}


def _length_fields(raw: bytes) -> dict:
    """field -> (offset, struct format) of each length field of a
    container: its header length, its blob count, and each blob's name
    length, ndim and dims, as "<blob> nlen", "<blob> ndim" and
    "<blob> dim <i>"."""
    (hlen,) = struct.unpack_from("<Q", raw, 8)
    at = 16 + hlen
    (nblobs,) = struct.unpack_from("<I", raw, at)
    fields = {"hlen": (8, "<Q"), "nblobs": (at, "<I")}
    at += 4
    for _ in range(nblobs):
        (nlen,) = struct.unpack_from("<H", raw, at)
        name = bytes(raw[at + 2 : at + 2 + nlen]).decode()
        itemsize = int(bytes(raw[at + 4 + nlen : at + 5 + nlen]))  # the 8 of b"<f8"
        fields[f"{name} nlen"] = (at, "<H")
        at += 5 + nlen
        (ndim,) = struct.unpack_from("<B", raw, at)
        dims = struct.unpack_from(f"<{ndim}Q", raw, at + 1)
        fields[f"{name} ndim"] = (at, "<B")
        fields.update({f"{name} dim {i}": (at + 1 + 8 * i, "<Q") for i in range(ndim)})
        at += 1 + 8 * ndim + math.prod(dims) * itemsize
    return fields


class TestFileHeads:
    """Wrong magic and unsupported version, for both file formats, each in
    one line naming the file."""

    @pytest.mark.parametrize("what", ["checkpoint", "store"])
    @pytest.mark.parametrize("head, message", [
        (b"XXXX", "bad {what} magic b'XXXX': {magic} expected"),
        (None, "unsupported {what} version 7"),
    ])
    def test_rejected_in_one_line(self, tmp_path, capsys, what, head, message):
        d, ckpt, store = tiny_model(tmp_path)
        capsys.readouterr()
        path = ckpt if what == "checkpoint" else store
        raw = bytearray(path.read_bytes())
        magic = bytes(raw[:4])
        raw[:8] = head + b"\0" * 4 if head else magic + struct.pack("<I", 7)
        path.write_bytes(bytes(raw))
        rc, out, err = run(capsys, *_reading(what, d, ckpt, store, tmp_path))
        assert rc == 1
        assert out == ""
        expected = message.format(what=what, magic=magic.decode())
        assert err.splitlines() == [f"error: {path}: {expected}"]


class TestStoreWidth:
    @pytest.mark.parametrize("command", ["eval", "query"])
    @pytest.mark.parametrize("width", [7, 4])
    def test_store_of_another_width(self, tmp_path, capsys, command, width):
        """Width 4 is both heads of the two-wide checkpoint, a layout that
        is not a store; either width is rejected once, before any query."""
        d, ckpt, _ = tiny_model(tmp_path)
        capsys.readouterr()
        store = tmp_path / "wide.store"
        EmbeddingStore(np.zeros((4, width), dtype=np.float32), np.arange(4)).save(store)
        common = ["--checkpoint", ckpt, "--data", d, "--store", store]
        if command == "eval":
            argv = ["eval", *common, "--rankings", tmp_path / "r.tsv", "--report", tmp_path / "p.tsv"]
        else:
            argv = ["query", *common, "--query-image", 0, "--query-bbox", "0,0,1,2"]
        rc, out, err = run(capsys, *argv)
        assert rc == 1
        assert out == ""
        assert err.splitlines() == [
            f"error: {store}: store width {width} does not match checkpoint width 2"
        ]
        assert not (tmp_path / "r.tsv").exists()


    @pytest.mark.parametrize("command", ["eval", "query"])
    def test_width_read_from_the_header_alone(self, tmp_path, capsys, command):
        """The checkpoint's blobs are not read: one cut after its header serves."""
        d, ckpt, store = tiny_model(tmp_path)
        capsys.readouterr()
        raw = ckpt.read_bytes()
        (hlen,) = struct.unpack_from("<Q", raw, 8)
        ckpt.write_bytes(raw[: 16 + hlen])
        common = ["--checkpoint", ckpt, "--data", d, "--store", store]
        if command == "eval":
            argv = ["eval", *common, "--rankings", tmp_path / "r.tsv", "--report", tmp_path / "p.tsv"]
        else:
            argv = ["query", *common, "--query-image", 1, "--query-bbox", "0,0,4,2"]
        rc, _, err = run(capsys, *argv)
        assert rc == 0, err


class TestStoreRows:
    """``eval`` and ``query`` rank a query object's own store row, so they
    and ``report`` read the manifest and no features."""

    def test_no_features_read(self, trained, tmp_path, capsys):
        data_dir, ckpt, store = trained
        (data_dir / "features.npy").unlink()
        rankings = tmp_path / "rankings.tsv"
        rc, _, err = run(
            capsys, "eval", "--checkpoint", ckpt, "--data", data_dir, "--store", store,
            "--rankings", rankings, "--report", tmp_path / "report.tsv", "--max-queries", 5,
        )
        assert rc == 0, err
        oid, image_id, *bbox = (data_dir / "manifest.tsv").read_text().splitlines()[3].split("\t")[:6]
        rc, out, err = run(
            capsys, "query", "--checkpoint", ckpt, "--data", data_dir, "--store", store,
            "--query-image", image_id, "--query-bbox", ",".join(bbox),
        )
        assert rc == 0, err
        assert out.splitlines()[0].split("\t")[:3] == ["1", oid, "0.0"]
        rc, _, err = run(capsys, "report", "--rankings", rankings, "--data", data_dir)
        assert rc == 0, err

    @pytest.mark.parametrize("command", ["eval", "query"])
    def test_query_missing_from_store(self, tmp_path, capsys, command):
        d, ckpt, store = tiny_model(tmp_path)
        capsys.readouterr()
        full = EmbeddingStore.load(store)
        EmbeddingStore(full.vectors[:3], full.object_ids[:3], full.manifest_sha256).save(store)
        common = ["--checkpoint", ckpt, "--data", d, "--store", store]
        if command == "eval":
            argv = ["eval", *common, "--rankings", tmp_path / "r.tsv", "--report", tmp_path / "p.tsv"]
        else:
            argv = ["query", *common, "--query-image", 1, "--query-bbox", "0,0,4,2"]
        rc, out, err = run(capsys, *argv)
        assert rc == 1
        assert out == ""
        assert err.splitlines() == [f"error: {store}: object 3 is not in the store"]
        assert not (tmp_path / "r.tsv").exists()


class TestStoreOfItsCorpus:
    """A store records the sha256 of the manifest it embedded, and its ids
    are <i8; eval and query reject another corpus, and a store with a
    negative id, in one line naming the store, before any query."""

    @pytest.mark.parametrize("command", ["eval", "query"])
    def test_another_corpus_with_the_same_ids(self, trained, tmp_path, ini, capsys, command):
        _, ckpt, store = trained
        other = tmp_path / "other"
        other.mkdir()
        assert run(capsys, "synth", "--config", ini, "--seed", 4, "--out", other)[0] == 0
        assert read_manifest(other / "manifest.tsv").ids.tolist() == list(range(SYNTH_KW["n_objects"]))
        common = ["--checkpoint", ckpt, "--data", other, "--store", store]
        if command == "eval":
            argv = ["eval", *common, "--rankings", tmp_path / "r.tsv", "--report", tmp_path / "p.tsv"]
        else:
            _, image_id, *bbox = (other / "manifest.tsv").read_text().splitlines()[0].split("\t")[:6]
            argv = ["query", *common, "--query-image", image_id, "--query-bbox", ",".join(bbox)]
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (1, "")
        assert err.splitlines() == [f"error: {store}: store was not embedded from the manifest in {other}"]
        assert not (tmp_path / "r.tsv").exists()

    def test_a_copy_of_the_corpus_is_its_corpus(self, trained, tmp_path, capsys):
        data_dir, ckpt, store = trained
        copy = tmp_path / "copy"
        copy.mkdir()
        (copy / "manifest.tsv").write_bytes((data_dir / "manifest.tsv").read_bytes())
        rc, _, err = run(
            capsys, "eval", "--checkpoint", ckpt, "--data", copy, "--store", store,
            "--rankings", tmp_path / "r.tsv", "--report", tmp_path / "p.tsv", "--max-queries", 3,
        )
        assert rc == 0, err

    def test_negative_id_is_a_damaged_store(self, trained, tmp_path, capsys):
        data_dir, ckpt, store = trained
        raw = bytearray(store.read_bytes())
        offset, _ = _length_fields(raw)["ids dim 0"]
        # the last id's bytes set to those of 2**64 - 7, which <i8 reads as -7
        struct.pack_into("<Q", raw, offset + 8 * SYNTH_KW["n_objects"], 2**64 - 7)
        store.write_bytes(bytes(raw))
        rc, out, err = run(
            capsys, "eval", "--checkpoint", ckpt, "--data", data_dir, "--store", store,
            "--rankings", tmp_path / "r.tsv", "--report", tmp_path / "p.tsv",
        )
        assert (rc, out) == (1, "")
        assert err.splitlines() == [f"error: {store}: damaged store"]


# blob -> the blobs that give a tiny-model checkpoint that blob in a shape
# its config (two wide, two clusters) or its neighbour ids do not allow
WRONG_SHAPE = {
    "opt.m": lambda b: {"opt.m": b["opt.m"][:-5]},
    "opt.v": lambda b: {"opt.v": b["opt.v"][:-5]},
    "bank.centroids": lambda b: {"bank.centroids": np.zeros((2, 3)), "bank.step": np.array(0)},
    "nt.rows": lambda b: {
        "nt.ids": np.arange(4), "nt.rows": np.zeros((3, 1), dtype=np.int64), "nt.step": np.array(0)
    },
}


# case -> an integer blob and its first entry, written into a tiny-model
# checkpoint that then has a bank and a neighbour table: a float entry
# writes the blob as <f8, and an integer one lies below the blob's range
# (below the -1 padding of the neighbour rows)
NOT_INT64 = {
    "nt.rows 1.5": ("nt.rows", 1.5),
    "nt.rows nan": ("nt.rows", math.nan),
    "nt.rows -2": ("nt.rows", -2),
    "nt.ids inf": ("nt.ids", math.inf),
    "nt.ids -1": ("nt.ids", -1),
    "nt.step 0.5": ("nt.step", 0.5),
    "nt.step -1": ("nt.step", -1),
    "opt.t 2.7": ("opt.t", 2.7),
    "opt.t -1": ("opt.t", -1),
    "bank.step 2**63": ("bank.step", 2.0**63),
    "bank.step -1": ("bank.step", -1),
}


def _damage(path, case) -> str:
    """Rewrite a valid checkpoint with one field damaged; returns the field."""
    header, blobs = read_container(path)
    if case in NOT_INT64:
        name, value = NOT_INT64[case]
        blobs.update({
            "bank.centroids": np.zeros((2, 2)), "bank.step": np.array(0),
            "nt.ids": np.arange(4), "nt.rows": np.array([[1], [0], [3], [2]]),
            "nt.step": np.array(0),
        })
        blobs[name] = np.asarray(blobs[name], dtype=type(value))
        blobs[name].flat[0] = value
        write_container(path, header, blobs)
        if isinstance(value, float):
            return f"bad {name!r} in checkpoint: <f8 blob, <i8 expected"
        return f"bad {name!r} in checkpoint: {value!r} is not an integer"
    if case == "missing blob":
        del blobs["opt.m"]
        write_container(path, header, blobs)
        return "'opt.m'"
    if case == "missing student":
        del blobs["student.data"]
        write_container(path, header, blobs)
        return "'student.data'"
    if case == "student shape":
        blobs["student.data"] = blobs["student.data"][:-1]
        write_container(path, header, blobs)
        return "student.data has shape"
    if case == "config not json":
        header["config"] = "{steps: 0}"
        write_container(path, header, blobs)
        return "'config'"
    if case in WRONG_SHAPE:
        blobs.update(WRONG_SHAPE[case](blobs))
        write_container(path, header, blobs)
        return f"{case} has shape"
    raw = bytearray(path.read_bytes())
    raw[16] = 0xFF  # the first byte of the header text
    path.write_bytes(bytes(raw))
    return "header"


class TestDamagedCheckpoint:
    def _assert_rejected(self, capsys, ckpt, field, argv):
        rc, out, err = run(capsys, *argv)
        assert rc == 1
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith(f"error: {ckpt}: ")
        assert field in line

    @pytest.mark.parametrize(
        "case", ["missing blob", "header not utf-8", "config not json", *WRONG_SHAPE, *NOT_INT64]
    )
    def test_rejected_in_one_line_naming_file_and_field(self, tmp_path, capsys, case):
        d, ckpt, _ = tiny_model(tmp_path)
        capsys.readouterr()
        field = _damage(ckpt, case)
        self._assert_rejected(capsys, ckpt, field, _reading("every blob", d, ckpt, None, tmp_path))

    @pytest.mark.parametrize("case", ["missing student", "student shape"])
    def test_embed_rejects_a_damaged_student(self, tmp_path, capsys, case):
        d, ckpt, _ = tiny_model(tmp_path)
        capsys.readouterr()
        field = _damage(ckpt, case)
        self._assert_rejected(capsys, ckpt, field, _reading("checkpoint", d, ckpt, None, tmp_path))

    def test_embed_reads_only_the_student(self, tmp_path, capsys):
        """Without ``opt.m`` a checkpoint embeds to the same store, and a
        resume, which needs it, is rejected."""
        d, ckpt, store = tiny_model(tmp_path)
        capsys.readouterr()
        field = _damage(ckpt, "missing blob")
        again = tmp_path / "again.store"
        rc, _, err = run(capsys, "embed", "--checkpoint", ckpt, "--data", d, "--out", again)
        assert rc == 0, err
        assert again.read_bytes() == store.read_bytes()
        self._assert_rejected(capsys, ckpt, field, _reading("every blob", d, ckpt, None, tmp_path))


class _HalfFullDisk:
    """A file that takes ``limit`` bytes, then fails as a full disk does."""

    def __init__(self, fh, limit):
        self.fh, self.left = fh, limit

    def write(self, data):
        if len(data) > self.left:
            raise OSError(28, "No space left on device")
        self.left -= len(data)
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


class TestCrashSafeWrites:
    @pytest.mark.parametrize("artifact", ["checkpoint", "store"])
    def test_failed_rewrite_keeps_previous_file(self, tmp_path, monkeypatch, artifact):
        import builtins

        from groupvec import checkpoint

        _, ckpt, store = tiny_model(tmp_path)
        if artifact == "checkpoint":
            path = ckpt
            header, blobs = checkpoint.read_container(ckpt)
            blobs = {name: arr + 1.0 for name, arr in blobs.items()}

            def rewrite():
                checkpoint.write_container(ckpt, header, blobs)
        else:
            path = store
            old_store = EmbeddingStore.load(store)
            new_store = EmbeddingStore(old_store.vectors + 1.0, old_store.object_ids)

            def rewrite():
                new_store.save(store)
        old = path.read_bytes()

        monkeypatch.setattr(
            checkpoint, "open",
            lambda file, mode: _HalfFullDisk(builtins.open(file, mode), len(old) // 2),
            raising=False,
        )
        with pytest.raises(OSError, match="No space left"):
            rewrite()
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["tiny", "tiny.ckpt", "tiny.store"]

        monkeypatch.undo()
        rewrite()
        assert path.read_bytes() != old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["tiny", "tiny.ckpt", "tiny.store"]

class TestAtomicOutputs:
    def test_failed_eval_keeps_previous_outputs(self, trained, tmp_path, capsys, monkeypatch):
        data_dir, ckpt, store = trained
        rankings, report = tmp_path / "rankings.tsv", tmp_path / "report.tsv"
        argv = ["eval", "--checkpoint", ckpt, "--data", data_dir, "--store", store,
                "--rankings", rankings, "--report", report, "--max-queries", 12]
        assert run(capsys, *argv)[0] == 0
        before = [rankings.read_bytes(), report.read_bytes()]

        add = ScaleReport.add
        # in process, in the parent's part (queries 0-5 of two) and in the child's
        for cpus, failing in ((1, 8), (2, 2), (2, 8)):

            def add_then_fail(self, qid, rows):
                if qid == failing:
                    raise ValueError("scoring failed")
                return add(self, qid, rows)

            forked = force_cpus(monkeypatch, cpus)
            monkeypatch.setattr(ScaleReport, "add", add_then_fail)
            rc, out, err = run(capsys, *argv)
            monkeypatch.undo()
            assert_reaped(forked, cpus - 1)
            assert rc == 1
            assert out == ""
            assert [line for line in err.splitlines() if line.startswith("error:")] == [
                "error: scoring failed"
            ]
            assert [rankings.read_bytes(), report.read_bytes()] == before
            assert sorted(p.name for p in tmp_path.glob("*.tmp")) == []

    def test_child_that_dies_keeps_previous_outputs(self, trained, tmp_path, capsys, monkeypatch):
        data_dir, ckpt, store = trained
        rankings, report = tmp_path / "rankings.tsv", tmp_path / "report.tsv"
        argv = ["eval", "--checkpoint", ckpt, "--data", data_dir, "--store", store,
                "--rankings", rankings, "--report", report, "--max-queries", 12]
        assert run(capsys, *argv)[0] == 0
        before = [rankings.read_bytes(), report.read_bytes()]

        add, parent = ScaleReport.add, os.getpid()

        def add_or_die(self, qid, rows):
            # query 6 is in the middle of the second of three parts
            if qid == 6 and os.getpid() != parent:
                os._exit(3)
            return add(self, qid, rows)

        forked = force_cpus(monkeypatch, 3)
        monkeypatch.setattr(ScaleReport, "add", add_or_die)
        rc, out, err = run(capsys, *argv)
        assert_reaped(forked, 2)
        assert rc == 1
        assert out == ""
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: a ranking process exited with status 3 and sent no result"
        ]
        assert [rankings.read_bytes(), report.read_bytes()] == before
        assert sorted(p.name for p in tmp_path.glob("*.tmp")) == []


def _write_npz(path):
    """An ``.npz`` archive at ``path``, whatever its name."""
    with open(path, "wb") as fh:
        np.savez(fh, features=np.zeros((4, 2)))


class TestFeatureFiles:
    """A features file that is not a 2-D array is one line naming it, and
    nothing is written."""

    @pytest.mark.parametrize("write", [
        pytest.param(lambda path: np.save(path, np.float64(3.0)), id="0-d"),
        pytest.param(_write_npz, id="npz"),
    ])
    @pytest.mark.parametrize("command", ["ingest", "train", "embed"])
    def test_not_a_2d_array(self, tmp_path, capsys, command, write):
        d, ckpt, _ = tiny_model(tmp_path)
        capsys.readouterr()
        feats = d / "features.npy"
        write(feats)
        out = tmp_path / "out"
        out.mkdir()
        if command == "ingest":
            ann = tmp_path / "ann.json"
            ann.write_text(json.dumps({
                "images": [{"id": 1}],
                "annotations": [{"id": 1, "image_id": 1, "bbox": [0, 0, 2, 2], "category_id": 0}],
            }))
            argv = ["ingest", "--annotations", ann, "--features", feats, "--out", out]
        elif command == "train":
            argv = ["train", "--data", d, "--out", out, "--steps", 1]
        else:
            argv = ["embed", "--checkpoint", ckpt, "--data", d, "--out", out / "store.bin"]
        rc, stdout, err = run(capsys, *argv)
        assert (rc, stdout) == (1, "")
        assert err.splitlines() == [f"error: {feats}: not a 2-D feature array"]
        assert list(out.iterdir()) == []


class TestIngest:
    def test_round_trip(self, tmp_path, capsys):
        doc = {
            "images": [{"id": 1}, {"id": 2}],
            "annotations": [
                {"id": 10, "image_id": 1, "bbox": [0, 0, 10, 10], "category_id": 3},
                {"id": 11, "image_id": 2, "bbox": [5, 5, 4, 2], "category_id": 1},
                {"id": 12, "image_id": 1, "bbox": [1, 1, 6, 6], "category_id": 3},
            ],
        }
        ann = tmp_path / "ann.json"
        ann.write_text(json.dumps(doc))
        feats = tmp_path / "feats.npy"
        np.save(feats, np.arange(12.0).reshape(3, 4))
        d = tmp_path / "data"
        d.mkdir()
        rc, _, _ = run(
            capsys, "ingest", "--annotations", ann, "--features", feats, "--out", d
        )
        assert rc == 0
        table, features, provider = _load_data(d)
        assert [r.object_id for r in table] == [10, 11, 12]
        assert np.array_equal(
            provider.base_features(np.array([11])), [[4.0, 5.0, 6.0, 7.0]]
        )

    def test_feature_row_mismatch(self, tmp_path, capsys):
        doc = {
            "images": [{"id": 1}],
            "annotations": [
                {"id": 1, "image_id": 1, "bbox": [0, 0, 2, 2], "category_id": 0}
            ],
        }
        ann = tmp_path / "ann.json"
        ann.write_text(json.dumps(doc))
        feats = tmp_path / "feats.npy"
        np.save(feats, np.zeros((4, 4)))
        d = tmp_path / "data"
        d.mkdir()
        rc, _, err = run(
            capsys, "ingest", "--annotations", ann, "--features", feats, "--out", d
        )
        assert rc == 1
        assert "4 feature rows for 1 annotations" in err

    def test_non_integer_class_writes_nothing(self, tmp_path, capsys):
        # read_manifest would reject what ingest wrote, so ingest rejects it
        doc = {
            "images": [{"id": 1}],
            "annotations": [
                {"id": 1, "image_id": 1, "bbox": [0, 0, 2, 2], "category_id": 1.5}
            ],
        }
        ann = tmp_path / "ann.json"
        ann.write_text(json.dumps(doc))
        feats = tmp_path / "feats.npy"
        np.save(feats, np.zeros((1, 4)))
        d = tmp_path / "data"
        d.mkdir()
        rc, _, err = run(
            capsys, "ingest", "--annotations", ann, "--features", feats, "--out", d
        )
        assert rc == 1
        assert err.splitlines() == ["error: annotations[0]: category_id must be an integer, got 1.5"]
        assert list(d.iterdir()) == []
