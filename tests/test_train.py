import math

import numpy as np
import pytest

import groupvec.sampling as sampling_mod
import groupvec.train as train_mod
from _cpus import assert_reaped, force_cpus
from _oracles import adam_step_expr, adam_step_whole, knn_rows
from groupvec.checkpoint import read_container, write_container
from groupvec.data import SynthConfig, synth_generate_full
from groupvec.encoder import Params
from groupvec.losses import LossConfig
from groupvec.train import (
    OptState,
    TrainConfig,
    config_digest,
    cosine_lr,
    init_state,
    load_checkpoint,
    optimizer_step,
    save_checkpoint,
    train,
    train_step,
)


class TestCosine:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100, 3e-4) == 3e-4
        assert cosine_lr(100, 100, 3e-4) == 0.0
        assert cosine_lr(50, 100, 3e-4) == pytest.approx(1.5e-4, rel=1e-12)

    def test_monotone_decay(self):
        vals = [cosine_lr(s, 40, 1.0) for s in range(41)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cosine_lr(11, 10, 1.0)
        with pytest.raises(ValueError):
            cosine_lr(-1, 10, 1.0)
        with pytest.raises(ValueError):
            cosine_lr(0, 0, 1.0)


def flat_params(values):
    p = Params([("x", (len(values),))])
    p.data[:] = values
    return p


class TestOptimizer:
    def test_zero_gradient_no_decay_is_identity(self):
        p = flat_params([1.0, -2.0, 3.5])
        before = p.data.copy()
        optimizer_step(p, flat_params([0, 0, 0]), lr=0.1, weight_decay=0.0,
                       state=OptState(3))
        assert np.array_equal(p.data, before)

    def test_zero_gradient_decay_scales(self):
        p = flat_params([1.0, -2.0, 3.5])
        before = p.data.copy()
        optimizer_step(p, flat_params([0, 0, 0]), lr=1.0, weight_decay=0.01,
                       state=OptState(3))
        assert np.allclose(p.data, 0.99 * before, rtol=1e-15)

    def test_constant_gradient_step_magnitude_approaches_lr(self):
        p = flat_params([0.0, 0.0])
        state = OptState(2)
        g = flat_params([0.5, -3.0])
        lr = 1e-3
        for _ in range(10):
            prev = p.data.copy()
            optimizer_step(p, g, lr=lr, weight_decay=0.0, state=state)
            delta = p.data - prev
        assert np.all(np.abs(np.abs(delta) - lr) < 0.01 * lr)
        assert np.sign(delta[0]) == -1.0 and np.sign(delta[1]) == 1.0

    def test_non_finite_gradient_aborts_without_side_effects(self):
        p = flat_params([1.0, -0.5, 2.0])
        state = OptState(3)
        optimizer_step(p, flat_params([0.3, -0.1, 0.2]), lr=0.1, weight_decay=0.1, state=state)
        before = (p.data.copy(), state.m.copy(), state.v.copy())
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(FloatingPointError):
                optimizer_step(p, flat_params([0.1, bad, 0.2]), lr=0.1, weight_decay=0.1, state=state)
            assert state.t == 1
            assert np.array_equal(p.data, before[0])
            assert np.array_equal(state.m, before[1])
            assert np.array_equal(state.v, before[2])

    def test_in_place_step_equals_expression_form_bit_for_bit(self):
        rng = np.random.default_rng(17)
        n = 4099
        p = flat_params(rng.normal(size=n))
        state = OptState(n)
        ref_p, ref_m, ref_v = p.data.copy(), state.m.copy(), state.v.copy()
        for t, lr in enumerate([3e-4, 2.5e-4, 1e-3, 7e-5, 5e-4, 1.3e-4, 0.0], start=1):
            g = rng.normal(size=n) * rng.choice([1e-6, 1.0, 1e3], size=n)
            optimizer_step(p, flat_params(g), lr=lr, weight_decay=0.01, state=state)
            ref_p, ref_m, ref_v = adam_step_expr(ref_p, g, lr, 0.01, ref_m, ref_v, t)
            assert state.t == t
            assert np.array_equal(p.data, ref_p)
            assert np.array_equal(state.m, ref_m)
            assert np.array_equal(state.v, ref_v)


    @pytest.mark.parametrize("n", [1000, 2 * train_mod._OPT_BLOCK + 4099])
    def test_blocked_step_equals_whole_vector_form(self, n):
        # one block smaller than the block size, and a partial last block
        rng = np.random.default_rng(n)
        p = flat_params(rng.normal(size=n))
        state = OptState(n)
        ref_p, ref_m, ref_v = p.data.copy(), state.m.copy(), state.v.copy()
        for t in range(1, 13):
            lr = cosine_lr(t - 1, 12, 1e-3)
            g = rng.normal(size=n) * rng.choice([1e-6, 1.0, 1e3], size=n)
            optimizer_step(p, flat_params(g), lr=lr, weight_decay=0.01, state=state)
            adam_step_whole(ref_p, g, lr, 0.01, ref_m, ref_v, t)
            for got, want in ((p.data, ref_p), (state.m, ref_m), (state.v, ref_v)):
                assert np.array_equal(got.view(np.int64), want.view(np.int64))


def tiny_corpus(seed=0, n=60):
    cfg = SynthConfig(n_objects=n, seed=seed, feature_dim=8, n_classes=4)
    table, _, model = synth_generate_full(cfg)
    return table, model


def tiny_cfg(**over):
    base = dict(
        steps=6, batch=20, groups=2, clusters=4, knn=2, refresh_period=3,
        n_shared=2, kmeans_iters=5, lr=1e-3, weight_decay=0.01,
        ema_momentum=0.99, seed=0, hidden_dim=8, trunk_layers=2,
        student_dim=8, teacher_dim=12, loss=LossConfig(),
    )
    base.update(over)
    return TrainConfig(**base)


class TestTrainLoop:
    def test_zero_steps_returns_initialization(self):
        table, model = tiny_corpus()
        cfg = tiny_cfg(steps=0)
        state, lines = train(cfg, table, model)
        fresh = init_state(cfg, 8)
        assert lines == []
        assert state.step == 0
        assert np.array_equal(state.student.params.data, fresh.student.params.data)
        assert np.array_equal(state.teacher.params.data, fresh.teacher.params.data)

    def test_log_format(self):
        table, model = tiny_corpus()
        state, lines = train(tiny_cfg(), table, model)
        assert len(lines) == 6
        for i, line in enumerate(lines):
            cols = line.split("\t")
            assert len(cols) == 7
            assert int(cols[0]) == i
            vals = [float(c) for c in cols[1:]]
            assert all(math.isfinite(v) for v in vals)
        assert float(lines[0].split("\t")[1]) == 1e-3  # cosine at step 0

    def test_deterministic(self):
        table, model = tiny_corpus()
        a_state, a_lines = train(tiny_cfg(), table, model)
        b_state, b_lines = train(tiny_cfg(), table, model)
        assert a_lines == b_lines
        assert np.array_equal(a_state.student.params.data, b_state.student.params.data)

    def test_teacher_only_moves_through_ema(self):
        table, model = tiny_corpus()
        cfg = tiny_cfg(ema_momentum=1.0)  # frozen teacher
        fresh = init_state(cfg, 8)
        state, _ = train(cfg, table, model)
        assert np.array_equal(state.teacher.params.data, fresh.teacher.params.data)
        assert not np.array_equal(state.student.params.data, fresh.student.params.data)

    def test_loss_decreases_on_small_corpus(self):
        table, model = tiny_corpus(n=120)
        cfg = tiny_cfg(steps=80, batch=24, refresh_period=40, lr=3e-3, seed=1)
        _, lines = train(cfg, table, model)
        totals = [float(l.split("\t")[2]) for l in lines]
        assert np.median(totals[-20:]) < np.median(totals[:20])

    def test_resume_is_bit_identical(self, tmp_path):
        table, model = tiny_corpus()
        cfg = tiny_cfg()
        full_state, full_lines = train(cfg, table, model)

        from groupvec.data import partition_by_scale

        groups = partition_by_scale(table, cfg.groups)
        state = init_state(cfg, 8)
        head = [train_step(state, groups, model) for _ in range(3)]
        ckpt = tmp_path / "mid.msg1"
        save_checkpoint(ckpt, state)
        resumed = load_checkpoint(ckpt)
        assert resumed.step == 3
        resumed_state, tail = train(cfg, table, model, state=resumed)
        assert head + tail == full_lines
        assert np.array_equal(
            resumed_state.student.params.data, full_state.student.params.data
        )
        assert np.array_equal(
            resumed_state.teacher.params.data, full_state.teacher.params.data
        )

    def test_checkpoint_round_trip_restores_everything(self, tmp_path):
        table, model = tiny_corpus()
        cfg = tiny_cfg()
        state, _ = train(cfg, table, model)
        path = tmp_path / "end.msg1"
        save_checkpoint(path, state)
        back = load_checkpoint(path)
        assert back.step == state.step
        assert np.array_equal(back.student.params.data, state.student.params.data)
        assert np.array_equal(back.teacher.params.data, state.teacher.params.data)
        assert np.array_equal(back.opt.m, state.opt.m)
        assert np.array_equal(back.opt.v, state.opt.v)
        assert back.opt.t == state.opt.t
        assert np.array_equal(back.bank.centroids, state.bank.centroids)
        assert back.bank.last_refresh_step == state.bank.last_refresh_step
        assert set(back.ntable.neighbors) == set(state.ntable.neighbors)
        for oid, nb in state.ntable.neighbors.items():
            assert np.array_equal(back.ntable.neighbors[oid], nb)
        assert back.rng.bit_generator.state == state.rng.bit_generator.state
        assert config_digest(back.cfg) == config_digest(cfg)

    def test_loaded_buffers_are_owned_and_writeable(self, tmp_path):
        table, model = tiny_corpus()
        state, _ = train(tiny_cfg(), table, model)
        path = tmp_path / "end.msg1"
        save_checkpoint(path, state)
        back = load_checkpoint(path)
        arrays = [back.opt.m, back.opt.v, back.bank.centroids]
        for arr in arrays:
            assert arr.flags.writeable and arr.flags.owndata
        assert not any(
            np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1:]
        )

    def test_checkpoint_with_wrong_parameter_count_is_rejected(self, tmp_path):
        table, model = tiny_corpus()
        state, _ = train(tiny_cfg(steps=1), table, model)
        path = tmp_path / "end.msg1"
        save_checkpoint(path, state)
        header, blobs = read_container(path)
        blobs["teacher.data"] = blobs["teacher.data"][:-1]
        write_container(path, header, blobs)
        with pytest.raises(ValueError, match="teacher.data"):
            load_checkpoint(path)

    def test_loss_log_unchanged_by_screened_knn(self, monkeypatch):
        # four refreshes in 12 steps: the Gram-screened table and the
        # per-row full sort must give the same batches and the same log.
        # On one CPU every knn_table call runs here, where it is recorded.
        force_cpus(monkeypatch, 1)
        table, model = tiny_corpus(n=120)
        cfg = tiny_cfg(steps=12, refresh_period=3, knn=4, teacher_dim=64)
        _, screened = train(cfg, table, model)
        calls = []

        def per_row_table(*args):
            calls.append(args[-1])
            return knn_rows(*args)

        monkeypatch.setattr(sampling_mod, "knn_table", per_row_table)
        _, per_row = train(cfg, table, model)
        # one knn_table call per group at each refresh step
        assert calls == [s for s in (0, 3, 6, 9) for _ in range(cfg.groups)]
        assert len(screened) == 12
        assert screened == per_row

    def test_failed_refresh_child_keeps_checkpoint_and_log(self, tmp_path, monkeypatch):
        # refreshes at steps 0 and 3; the child of the second one fails
        # while lines 0-2 wait in the log's buffer
        table, model = tiny_corpus()
        cfg = tiny_cfg()
        _, lines = train(cfg, table, model)
        knn = sampling_mod.knn_table

        def knn_failing_at_step_3(*args):
            if args[-1] == 3:
                raise ValueError("kNN failed")
            return knn(*args)

        forked = force_cpus(monkeypatch, 2)
        monkeypatch.setattr(sampling_mod, "knn_table", knn_failing_at_step_3)
        path, log_path = tmp_path / "abort.msg1", tmp_path / "loss.log"
        with open(log_path, "w", encoding="utf-8", newline="\n") as log:
            with pytest.raises(ValueError, match="^kNN failed$"):
                train(cfg, table, model, log=log, checkpoint_path=path)
        assert_reaped(forked, 2)
        assert load_checkpoint(path).step == 3
        assert log_path.read_text(encoding="utf-8").splitlines() == lines[:3]

    def test_resume_rejects_config_mismatch(self, tmp_path):
        table, model = tiny_corpus()
        state, _ = train(tiny_cfg(), table, model)
        with pytest.raises(ValueError, match="config"):
            train(tiny_cfg(lr=5e-3), table, model, state=state)

    def test_abort_writes_checkpoint(self, tmp_path, monkeypatch):
        table, model = tiny_corpus()
        cfg = tiny_cfg()
        path = tmp_path / "abort.msg1"
        calls = {"n": 0}
        real = train_mod.train_step

        def explode(state, groups, provider):
            if calls["n"] == 2:
                raise RuntimeError("boom")
            calls["n"] += 1
            return real(state, groups, provider)

        monkeypatch.setattr(train_mod, "train_step", explode)
        with pytest.raises(RuntimeError, match="boom"):
            train(cfg, table, model, checkpoint_path=path)
        back = load_checkpoint(path)
        assert back.step == 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            tiny_cfg(steps=-1)
        with pytest.raises(ValueError):
            tiny_cfg(lr=0.0)
        with pytest.raises(ValueError):
            tiny_cfg(ema_momentum=1.5)
        with pytest.raises(ValueError):
            tiny_cfg(groups=0)
