"""Ensemble and dual-branch model structure, growth, and checkpoints."""

import hashlib
import struct

import numpy as np
import pytest

from divreg import models
from divreg.autodiff import Row, ShapeMismatch, Tensor, backward
from divreg.models import (CapacityError, CheckpointFormatError, DualBranchModel,
                           EnsembleModel, _spatial_kernel, add_branch,
                           build_dual_branch, build_ensemble, dual_predict,
                           ensemble_predict, load_checkpoint, patchify,
                           save_checkpoint, softmax_probs, unpatchify)
from tape_oracle import tsum


def rand_images(n, size, seed=0):
    return np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, 1, size, size))


def test_spatial_kernel_rule():
    assert _spatial_kernel(7) == 7
    assert _spatial_kernel(8) == 7
    assert _spatial_kernel(6) == 3
    assert _spatial_kernel(1) == 3


def test_build_ensemble_topology():
    model = build_ensemble(8, branch_max=3, seed=0, input_size=32)
    assert model.base.out_channels == 16
    assert model.base.out_size == 8  # 32 -> 16 -> 8 via two stride-2 convs
    assert len(model.branches) == 1
    b = model.branches[0]
    assert b.conv1.weights.data.shape == (32, 16, 3, 3)
    assert b.conv2.stride == 2
    assert b.attn1.spatial_conv.kernel == 7  # 8x8 map
    assert b.attn2.spatial_conv.kernel == 3  # 4x4 map
    assert b.head.weights.data.shape == (32, 8)
    # base(4) + branch(conv 2+2, attn 6+6, head 2)
    assert len(model.parameters()) == 4 + 18


def test_build_ensemble_validation():
    with pytest.raises(ValueError):
        build_ensemble(1)
    with pytest.raises(ValueError):
        build_ensemble(8, branch_max=0)
    with pytest.raises(ValueError):
        build_ensemble(8, branch_max=2, initial_branches=3)
    with pytest.raises(ValueError):
        build_ensemble(8, input_size=2)


def test_attention_off_strips_blocks():
    model = build_ensemble(4, attention_enabled=False, input_size=8)
    b = model.branches[0]
    assert b.attn1 is None and b.attn2 is None
    assert len(model.parameters()) == 4 + 6
    logits, maps = model.forward(Tensor(rand_images(2, 8)))
    assert maps == [[]]


def test_ensemble_forward_shapes():
    model = build_ensemble(5, branch_max=3, initial_branches=2, input_size=8, seed=1)
    logits, maps = model.forward(Tensor(rand_images(3, 8)))
    assert len(logits) == 2 and len(maps) == 2
    for lg in logits:
        assert lg.data.shape == (3, 5)
    for branch_maps in maps:
        assert len(branch_maps) == 2
        assert branch_maps[0].spatial_map.data.shape == (3, 1, 2, 2)
        assert branch_maps[1].channel_map.data.shape == (3, 32, 1, 1)


def test_build_is_deterministic():
    a = build_ensemble(4, seed=7, input_size=8)
    b = build_ensemble(4, seed=7, input_size=8)
    for pa, pb in zip(a.parameters(), b.parameters()):
        np.testing.assert_array_equal(pa.data, pb.data)
    c = build_ensemble(4, seed=8, input_size=8)
    assert any(not np.array_equal(pa.data, pc.data)
               for pa, pc in zip(a.parameters(), c.parameters()))


def test_branch_init_depends_only_on_seed_and_index():
    # growing to 3 and starting at 3 give identical weights
    grown = build_ensemble(4, branch_max=3, seed=5, input_size=8)
    add_branch(grown)
    add_branch(grown)
    direct = build_ensemble(4, branch_max=3, seed=5, input_size=8, initial_branches=3)
    for pg, pd in zip(grown.parameters(), direct.parameters()):
        np.testing.assert_array_equal(pg.data, pd.data)


@pytest.mark.parametrize("build,digest", [
    (lambda: build_ensemble(8, seed=0, input_size=32, initial_branches=3), "a25ce46c23f7"),
    (lambda: build_ensemble(8, seed=0, input_size=32, initial_branches=3,
                            attention_enabled=False), "d9da8bfd3555"),
    (lambda: build_dual_branch(8, seed=0, input_size=32), "cefbf53e8d25"),
    (lambda: build_dual_branch(8, seed=0, input_size=32, attention_enabled=False),
     "7b39c34f5e2d"),
], ids=["ensemble", "ensemble_no_attention", "dual", "dual_no_attention"])
def test_fresh_build_checkpoint_bytes_are_frozen(build, digest, tmp_path):
    # pins every draw's stream and order and the parameter order of a new model
    path = tmp_path / "m.dvrg"
    save_checkpoint(build(), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:12] == digest


def test_add_branch_leaves_existing_outputs_bit_exact():
    model = build_ensemble(4, branch_max=3, seed=2, input_size=8)
    probe = Tensor(rand_images(4, 8, seed=3))
    before, _ = model.forward(probe)
    before = [lg.data.copy() for lg in before]
    add_branch(model)
    after, _ = model.forward(probe)
    assert len(after) == 2
    for old, new in zip(before, after):
        assert np.array_equal(old, new.data)


def test_add_branch_capacity_error():
    model = build_ensemble(4, branch_max=1, input_size=8)
    with pytest.raises(CapacityError):
        add_branch(model)


def test_ensemble_predict_majority_vote():
    # two branches vote class 2, one votes class 0
    l1 = np.array([[0.0, 0.0, 5.0]])
    l2 = np.array([[0.2, 0.0, 4.0]])
    l3 = np.array([[9.0, 0.0, 0.0]])
    np.testing.assert_array_equal(ensemble_predict(np.stack([l1, l2, l3])), [2])


def test_ensemble_predict_tie_uses_summed_softmax():
    # one vote each; summed softmax favors class 1
    l1 = np.array([[3.0, 2.9, 0.0]])
    l2 = np.array([[0.0, 5.0, 0.0]])
    picked = ensemble_predict(np.stack([l1, l2]))
    summed = softmax_probs(l1) + softmax_probs(l2)
    assert picked[0] == summed[0].argmax() == 1


def test_ensemble_predict_full_tie_picks_lowest_class():
    l1 = np.array([[1.0, 0.0]])
    l2 = np.array([[0.0, 1.0]])
    np.testing.assert_array_equal(ensemble_predict(np.stack([l1, l2])), [0])


def test_ensemble_predict_matches_per_image_vote():
    def per_image(logits_list):  # the per-image loop the vectorized count replaced
        probs = np.stack([softmax_probs(lg) for lg in logits_list])
        votes, summed = probs.argmax(axis=2), probs.sum(axis=0)
        out = []
        for i in range(probs.shape[1]):
            counts = np.bincount(votes[:, i], minlength=probs.shape[2])
            tied = np.flatnonzero(counts == counts.max())
            out.append(tied[int(np.argmax(summed[i, tied]))])
        return out

    rng = np.random.default_rng(5)
    for _ in range(300):
        b, k = rng.integers(1, 16), rng.integers(2, 9)
        # logits on a coarse grid: tied votes and tied summed softmax are common
        logits = [rng.integers(0, 3, size=(6, k)).astype(np.float64) for _ in range(b)]
        np.testing.assert_array_equal(ensemble_predict(np.stack(logits)), per_image(logits))


def test_softmax_probs_rows_normalized():
    p = softmax_probs(np.array([[1000.0, 0.0], [0.0, 0.0]]))
    np.testing.assert_allclose(p.sum(axis=1), [1.0, 1.0], rtol=1e-15)
    assert p[1, 0] == 0.5


def test_patchify_unpatchify_roundtrip():
    d = np.random.default_rng(4).normal(size=(2, 3, 6, 8))
    t = Tensor(d)
    patches = patchify(t)
    assert patches.data.shape == (4, 2, 3, 3, 4)
    np.testing.assert_array_equal(patches.data[0], d[:, :, :3, :4])  # top-left
    np.testing.assert_array_equal(patches.data[1], d[:, :, :3, 4:])  # top-right
    np.testing.assert_array_equal(patches.data[3], d[:, :, 3:, 4:])  # bottom-right
    back_ = unpatchify(patches)
    assert np.array_equal(back_.data, d)


def test_unpatchify_needs_four_quadrants():
    for shape in ((3, 2, 3, 3, 4), (5, 2, 3, 3, 4), (4, 3)):
        with pytest.raises(ShapeMismatch):
            unpatchify(Tensor(np.zeros(shape)))


def test_patchify_rejects_odd_dims():
    with pytest.raises(ValueError):
        patchify(Tensor(np.zeros((1, 1, 5, 6))))


def test_patchify_gradient_covers_input_once():
    t = Tensor(np.random.default_rng(5).normal(size=(1, 2, 4, 4)), requires_grad=True)
    backward(tsum(unpatchify(patchify(t))))
    np.testing.assert_array_equal(t.grad, np.ones((1, 2, 4, 4)))


def test_dual_forward_shapes():
    model = build_dual_branch(6, seed=3, input_size=16)
    res = model.forward(Tensor(rand_images(3, 16)))
    assert res.global_logits.data.shape == (3, 6)
    assert res.local_logits.data.shape == (3, 6)
    assert len(res.patch_features) == 4
    for f in res.patch_features:
        assert f.data.shape == (3, 32, 2, 2)  # 16 -> base 4 -> patch 2
    local_vec, global_vec = res.branch_pooled
    assert local_vec.data.shape == (3, 32)
    assert global_vec.data.shape == (3, 32)


def test_dual_validation():
    with pytest.raises(ValueError):
        build_dual_branch(1)
    with pytest.raises(ValueError):
        build_dual_branch(4, lambda_balance=1.5)
    with pytest.raises(ValueError):
        DualBranchModel(4, True, 0, 4, 0.5)


def test_dual_heads_differ_but_share_stream():
    model = build_dual_branch(4, seed=0, input_size=8)
    assert not np.array_equal(model.local_head.weights.data,
                              model.global_head.weights.data)


def test_dual_predict_mixes_softmaxes():
    g = np.array([[5.0, 0.0]])
    l = np.array([[0.0, 1.0]])
    # lambda=1 trusts local, lambda=0 trusts global
    np.testing.assert_array_equal(dual_predict(g, l, 1.0), [1])
    np.testing.assert_array_equal(dual_predict(g, l, 0.0), [0])
    mixed = 0.6 * softmax_probs(l) + 0.4 * softmax_probs(g)
    np.testing.assert_array_equal(dual_predict(g, l, 0.6), mixed.argmax(axis=1))


def test_checkpoint_roundtrip_ensemble(tmp_path):
    model = build_ensemble(5, branch_max=4, initial_branches=2, seed=9, input_size=8)
    probe = Tensor(rand_images(2, 8, seed=1))
    logits_before, _ = model.forward(probe)
    path = tmp_path / "m.dvrg"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert isinstance(loaded, EnsembleModel)
    assert loaded.class_count == 5
    assert loaded.branch_max == 4
    assert len(loaded.branches) == 2
    assert loaded.seed == 9
    for pa, pb in zip(model.parameters(), loaded.parameters()):
        np.testing.assert_array_equal(pa.data, pb.data)
    logits_after, _ = loaded.forward(probe)
    for a, b in zip(logits_before, logits_after):
        assert np.array_equal(a.data, b.data)


def test_checkpoint_roundtrip_dual(tmp_path):
    model = build_dual_branch(3, seed=4, input_size=8, lambda_balance=0.25)
    # trained-looking weights: perturb so the file is not just the init
    for p in model.parameters():
        p.data = p.data + 0.01
    path = tmp_path / "d.dvrg"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert isinstance(loaded, DualBranchModel)
    assert loaded.lambda_balance == 0.25
    assert loaded.attention_enabled is True
    for pa, pb in zip(model.parameters(), loaded.parameters()):
        np.testing.assert_array_equal(pa.data, pb.data)


def test_checkpoint_save_load_save_identical_bytes(tmp_path):
    model = build_ensemble(4, seed=1, input_size=8, attention_enabled=False)
    p1, p2 = tmp_path / "a.dvrg", tmp_path / "b.dvrg"
    save_checkpoint(model, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_error_cases(tmp_path):
    model = build_ensemble(4, seed=0, input_size=8)
    path = tmp_path / "m.dvrg"
    save_checkpoint(model, path)
    raw = bytearray(path.read_bytes())

    bad = tmp_path / "bad.dvrg"
    bad.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(CheckpointFormatError, match="magic"):
        load_checkpoint(bad)

    bad.write_bytes(bytes(raw[:20]))
    with pytest.raises(CheckpointFormatError, match="truncated"):
        load_checkpoint(bad)

    bad.write_bytes(bytes(raw[:-8]))
    with pytest.raises(CheckpointFormatError, match="truncated|ends early"):
        load_checkpoint(bad)

    bad.write_bytes(bytes(raw) + b"\x00" * 4)
    with pytest.raises(CheckpointFormatError, match="trailing"):
        load_checkpoint(bad)

    wrong_version = bytearray(raw)
    wrong_version[4] = 99
    bad.write_bytes(bytes(wrong_version))
    with pytest.raises(CheckpointFormatError, match="version"):
        load_checkpoint(bad)

    wrong_family = bytearray(raw)
    wrong_family[8] = 7
    bad.write_bytes(bytes(wrong_family))
    with pytest.raises(CheckpointFormatError, match="family"):
        load_checkpoint(bad)

    wrong_flags = bytearray(raw)
    wrong_flags[12] = 0xFF
    bad.write_bytes(bytes(wrong_flags))
    with pytest.raises(CheckpointFormatError, match="flags 0xff"):
        load_checkpoint(bad)


def test_checkpoint_invalid_header_values_are_format_errors(tmp_path):
    path = tmp_path / "d.dvrg"
    save_checkpoint(build_dual_branch(3, input_size=8), path)
    raw = bytearray(path.read_bytes())
    raw[44:52] = struct.pack("<d", 1.5)  # lambda, the header's last field
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError, match="lambda"):
        load_checkpoint(path)


def test_checkpoint_length_checked_before_building(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        pytest.fail("the model was built before the file length was checked")

    monkeypatch.setattr(models, "build_ensemble", refuse)
    path = tmp_path / "huge.dvrg"
    # header only: 4096 attended branches, 4 base + 18 per-branch parameters
    path.write_bytes(struct.pack(models._HEADER_FMT, models.CHECKPOINT_MAGIC,
                                 models.CHECKPOINT_VERSION, models.FAMILY_ENSEMBLE,
                                 1, 4096, 4096, 4, 32, 4 + 18 * 4096, 0, 0.0))
    with pytest.raises(CheckpointFormatError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_shapes_checked_before_building_branches(tmp_path, monkeypatch):
    built = []
    branch_class = models.EnsembleBranch

    def counted(*args, **kwargs):
        built.append(args[0])
        return branch_class(*args, **kwargs)

    monkeypatch.setattr(models, "EnsembleBranch", counted)
    # self-consistent but wrong: 256 attended branches, every entry zero-dimensional
    entries = 4 + 18 * 256
    path = tmp_path / "scalars.dvrg"
    path.write_bytes(struct.pack(models._HEADER_FMT, models.CHECKPOINT_MAGIC,
                                 models.CHECKPOINT_VERSION, models.FAMILY_ENSEMBLE,
                                 1, 256, 256, 4, 32, entries, 0, 0.0)
                     + struct.pack("<I", 0) * entries + bytes(8 * entries))
    with pytest.raises(CheckpointFormatError, match="parameter 0 shape mismatch"):
        load_checkpoint(path)
    assert len(built) <= 1


def test_checkpoint_rejects_unknown_model_type(tmp_path):
    with pytest.raises(TypeError):
        save_checkpoint(object(), tmp_path / "x.dvrg")


def _model_and_logits(family):
    """An L=3 ensemble or the dual model (four patch paths), a function of
    its logits on a fixed batch, and one learner's weight tensor."""
    x = Tensor(rand_images(3, 8, seed=2))
    if family == "ensemble":
        model = build_ensemble(4, branch_max=3, seed=3, input_size=8, initial_branches=3)
        return model, lambda: [lg.data for lg in model.forward(x)[0]], \
            model.branches[1].conv2.weights
    model = build_dual_branch(4, seed=3, input_size=8)

    def logits():
        res = model.forward(x)
        return [res.local_logits.data, res.global_logits.data]
    return model, logits, model.local_convs[2].weights


@pytest.mark.parametrize("family", ["ensemble", "dual_branch"])
def test_learner_rows_keep_the_parameter_contract(family):
    # what gradcheck, the benchmark's finite-difference and reload checks
    # and load_checkpoint rely on, for tensors that are rows of a block
    model, logits, p = _model_and_logits(family)
    assert isinstance(p, Row)
    base = logits()

    # an in-place write reaches the next forward...
    flat = p.data.reshape(-1)  # as grad_check perturbs a parameter
    flat += 0.5
    moved = logits()
    assert any(not np.array_equal(a, b) for a, b in zip(base, moved))
    # ...and so does an assignment, while an array read before keeps its values
    before = p.data
    kept = before.copy()
    p.data = before + 0.25
    assert np.array_equal(before, kept)
    assert any(not np.array_equal(a, b) for a, b in zip(moved, logits()))
    p.data = before
    assert all(np.array_equal(a, b) for a, b in zip(moved, logits()))

    # the benchmark's loop: every parameter moved, then restored
    params = model.parameters()
    saved = [q.data for q in params]
    copies = [s.copy() for s in saved]
    for q, s in zip(params, saved):
        q.data = s + 1e-3
    for q, s in zip(params, saved):
        q.data = s
    assert all(np.array_equal(s, c) for s, c in zip(saved, copies))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(moved, logits()))

    # one backward sets every learner's gradient
    for q in params:
        q.grad = None
    res = model.forward(Tensor(rand_images(3, 8, seed=2)))
    loss = res[0][0] if family == "ensemble" else res.local_logits
    for extra in (res[0][1:] if family == "ensemble" else [res.global_logits]):
        loss = loss + extra
    backward(tsum(loss))
    assert all(q.grad is not None and q.grad.shape == q.data.shape for q in params)
    assert sum(isinstance(q, Row) for q in params) == (54 if family == "ensemble" else 32)


def test_grouped_forward_neither_copies_nor_grows_with_branches(monkeypatch):
    # the grouped ops read each parameter block as it is: a forward makes no
    # np.stack copy, and each grouped conv/linear node has one weight and
    # one bias parent at any branch count
    stacks = []
    real_stack = np.stack
    monkeypatch.setattr(np, "stack", lambda *a, **k: stacks.append(1) or real_stack(*a, **k))
    parents = {}
    from_op = Tensor.from_op.__func__

    def recording(cls, data, ps, back, op):
        if op in ("conv2d", "linear"):
            parents.setdefault(branches, []).append(len(ps))
        return from_op(cls, data, ps, back, op)

    monkeypatch.setattr(Tensor, "from_op", classmethod(recording))
    for branches in (3, 15):
        model = build_ensemble(3, branch_max=15, seed=0, input_size=8, initial_branches=branches)
        model.stacked_forward(Tensor(rand_images(2, 8)))
    branches = "dual"
    build_dual_branch(3, seed=0, input_size=16).forward(Tensor(rand_images(2, 16)))
    assert stacks == []
    assert parents[3] == parents[15] and set(parents[15]) == set(parents["dual"]) == {3}
