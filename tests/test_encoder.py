import numpy as np
import pytest

from groupvec import encoder
from groupvec.checkpoint import read_container, write_container
from groupvec.encoder import EncoderConfig, Params, StudentNet, TeacherNet, ema_update

from _oracles import ema_update_per_name

CFG = EncoderConfig(
    feature_dim=6, groups=2, hidden_dim=16, trunk_layers=2, student_dim=8, teacher_dim=12
)


def test_forward_shapes_and_determinism():
    net = StudentNet.init(CFG, seed=0)
    x = np.random.default_rng(1).normal(size=(5, 6))
    fh, fl = net.forward(x, 1)
    assert fh.shape == (5, 8) and fl.shape == (5, 8)
    fh2, fl2 = net.forward(x, 1)
    assert np.array_equal(fh, fh2) and np.array_equal(fl, fl2)


def test_empty_input():
    net = StudentNet.init(CFG, seed=0)
    fh, fl = net.forward(np.zeros((0, 6)), 0)
    assert fh.shape == (0, 8) and fl.shape == (0, 8)
    teacher = TeacherNet.from_student(net, seed=5)
    assert teacher.embed(np.zeros((0, 6))).shape == (0, 12)


def test_group_out_of_range():
    net = StudentNet.init(CFG, seed=0)
    with pytest.raises(ValueError):
        net.forward(np.zeros((1, 6)), 2)
    with pytest.raises(ValueError, match="group index"):
        TeacherNet.from_student(net, seed=5).head_embed(np.zeros((1, 6)), CFG.groups)


def test_nonfinite_input_rejected():
    net = StudentNet.init(CFG, seed=0)
    x = np.zeros((2, 6))
    x[1, 3] = np.nan
    with pytest.raises(ValueError):
        net.forward(x, 0)


def test_zero_input_gives_composed_bias():
    net = StudentNet(CFG)  # all-zero weights
    net.params.view("trunk0.b")[:] = 0.5
    net.params.view("trunk1.b")[:] = -1.0  # relu clips to 0
    net.params.view("head_h0.b")[:] = 2.0
    net.params.view("head_l0.b")[:] = 3.0
    fh, fl = net.forward(np.zeros((4, 6)), 0)
    assert np.array_equal(fh, np.full((4, 8), 2.0))
    assert np.array_equal(fl, np.full((4, 8), 3.0))


def test_teacher_width_and_trunk_match():
    net = StudentNet.init(CFG, seed=0)
    teacher = TeacherNet.from_student(net, seed=9)
    x = np.random.default_rng(2).normal(size=(3, 6))
    assert teacher.embed(x).shape == (3, 12)
    # same trunk+head parameters right after copying
    sh, _ = net.forward(x, 0)
    th = teacher.head_embed(x, 0)
    assert np.allclose(sh, th, atol=0, rtol=0)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    net = StudentNet.init(CFG, seed=7)
    x = rng.normal(size=(4, 6))
    r_h = rng.normal(size=(4, 8))
    r_l = rng.normal(size=(4, 8))

    def scalar() -> float:
        fh, fl = net.forward(x, 1)
        return float(np.sum(r_h * fh) + np.sum(r_l * fl))

    fh, fl, cache = net.forward_cached(x, 1)
    grads = net.params.zeros_like()
    net.backward(cache, r_h, r_l, grads)

    eps = 1e-5
    data = net.params.data
    worst = 0.0
    for i in range(data.size):
        keep = data[i]
        data[i] = keep + eps
        up = scalar()
        data[i] = keep - eps
        down = scalar()
        data[i] = keep
        fd = (up - down) / (2 * eps)
        g = grads.data[i]
        denom = max(abs(fd), abs(g), 1e-8)
        worst = max(worst, abs(fd - g) / denom)
    assert worst < 1e-4


def test_ema_identities():
    student = StudentNet.init(CFG, seed=0)
    teacher = TeacherNet.from_student(student, seed=1)
    student.params.data += 1.0

    before = teacher.params.data.copy()
    ema_update(teacher, student, momentum=1.0)
    assert np.array_equal(teacher.params.data, before)

    ema_update(teacher, student, momentum=0.0)
    for name, _ in student.params.shapes:
        assert np.array_equal(teacher.params.view(name), student.params.view(name))

    teacher.params.view("trunk0.w")[:] = 2.0
    student.params.view("trunk0.w")[:] = 4.0
    ema_update(teacher, student, momentum=0.5)
    assert np.allclose(teacher.params.view("trunk0.w"), 3.0)


def test_ema_is_contraction_and_skips_projection():
    student = StudentNet.init(CFG, seed=4)
    teacher = TeacherNet.from_student(student, seed=5)
    rng = np.random.default_rng(6)
    teacher_shared = np.concatenate([teacher.params.view(n).ravel() for n, _ in student.params.shapes])
    student.params.data[:] = rng.normal(size=student.params.data.size)
    proj_before = teacher.params.view("proj.w").copy()

    dist0 = None
    for _ in range(3):
        shared = np.concatenate([teacher.params.view(n).ravel() for n, _ in student.params.shapes])
        dist = np.linalg.norm(shared - student.params.data)
        if dist0 is not None:
            assert dist == pytest.approx(0.9 * dist0, rel=1e-12)
        dist0 = dist
        ema_update(teacher, student, momentum=0.9)
    assert np.array_equal(teacher.params.view("proj.w"), proj_before)
    _ = teacher_shared


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_flat_ema_equals_per_name_updates(offset):
    # shared parameter counts one below, at and one above a single block;
    # with a one-unit hidden layer each input feature adds one parameter
    small = EncoderConfig(feature_dim=1, groups=1, hidden_dim=1, trunk_layers=1, student_dim=5)
    base = StudentNet(small).params.data.size
    cfg = EncoderConfig(
        feature_dim=1 + encoder._EMA_BLOCK + offset - base,
        groups=1, hidden_dim=1, trunk_layers=1, student_dim=5,
    )
    student = StudentNet.init(cfg, seed=7)
    assert student.params.data.size == encoder._EMA_BLOCK + offset
    teacher = TeacherNet.from_student(student, seed=8)
    oracle = TeacherNet(cfg, teacher.params.copy())
    proj_before = teacher.params.view("proj.w").copy(), teacher.params.view("proj.b").copy()
    rng = np.random.default_rng(9)
    for momentum in (0.999, 0.9, 0.5, 0.0, 1.0):
        student.params.data[:] = rng.normal(size=student.params.data.size) * 10.0
        ema_update(teacher, student, momentum)
        ema_update_per_name(oracle, student, momentum)
        assert np.array_equal(teacher.params.data.view(np.int64), oracle.params.data.view(np.int64))
    assert np.array_equal(teacher.params.view("proj.w"), proj_before[0])
    assert np.array_equal(teacher.params.view("proj.b"), proj_before[1])


def test_flat_ema_equals_per_name_updates_two_groups():
    student = StudentNet.init(CFG, seed=10)
    teacher = TeacherNet.from_student(student, seed=11)
    oracle = TeacherNet(CFG, teacher.params.copy())
    student.params.data += np.random.default_rng(12).normal(size=student.params.data.size)
    ema_update(teacher, student, 0.999)
    ema_update_per_name(oracle, student, 0.999)
    assert np.array_equal(teacher.params.data.view(np.int64), oracle.params.data.view(np.int64))


def test_ema_checks():
    student = StudentNet.init(CFG, seed=13)
    teacher = TeacherNet.from_student(student, seed=14)
    for momentum in (-0.1, 1.5):
        with pytest.raises(ValueError, match="momentum"):
            ema_update(teacher, student, momentum)
    missing = TeacherNet(CFG, Params([s for s in teacher.params.shapes if s[0] != "head_l0.b"]))
    with pytest.raises(ValueError, match="missing shared parameter head_l0.b"):
        ema_update(missing, student, 0.9)
    reshaped = TeacherNet(CFG, Params([
        (name, (shape[0] + 1,) + shape[1:]) if name == "trunk0.b" else (name, shape)
        for name, shape in teacher.params.shapes
    ]))
    with pytest.raises(ValueError, match="shape mismatch for trunk0.b"):
        ema_update(reshaped, student, 0.9)
    reordered = TeacherNet(CFG, Params(teacher.params.shapes[::-1]))
    with pytest.raises(ValueError, match="order"):
        ema_update(reordered, student, 0.9)


def test_container_round_trip_is_byte_exact(tmp_path):
    rng = np.random.default_rng(0)
    header = {"arch.feature_dim": "6", "step": "12", "note": "a b = c"}
    blobs = {
        "student.trunk0.w": rng.normal(size=(6, 16)),
        "opt.t": np.array(3.0),
        "ids": np.arange(5, dtype=np.float64),
    }
    p1 = tmp_path / "a.msg1"
    p2 = tmp_path / "b.msg1"
    write_container(p1, header, blobs)
    h, b = read_container(p1)
    assert h == header
    for k in blobs:
        assert np.array_equal(np.asarray(blobs[k], dtype=np.float64), b[k])
    write_container(p2, h, b)
    assert p1.read_bytes() == p2.read_bytes()


def test_container_bad_magic(tmp_path):
    p = tmp_path / "bad.msg1"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="MSG1 expected"):
        read_container(p)
