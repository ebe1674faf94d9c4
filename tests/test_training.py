"""Optimizer, loss composition, and the training loop."""

import tracemalloc
import weakref

import numpy as np
import pytest

from divreg import autodiff, diversity, nn, training
from divreg.autodiff import Tensor, backward, concat, relu
from divreg.config import ExperimentConfig
from divreg.data import Dataset, GeneratorConfig, batches, generate
from divreg.diversity import (DiversityScore, channel_pool, diversity_of_pooled,
                              measure_diversity, spatial_pool)
from divreg.models import (DualBranchModel, EnsembleModel, build_dual_branch, build_ensemble,
                           dual_predict, ensemble_predict)
from divreg.nn import (attention_apply, conv2d, global_avg_pool, linear,
                       softmax_cross_entropy)
from divreg.training import (EVAL_BATCH_SIZE, SGD, EpochRecord, LossBreakdown,
                             NonFiniteLossError, _checked_add, _dual_step, _ensemble_step, esr_loss,
                             evaluate, manet_loss, predict_dataset, resolved_gammas, train)


def score(value, dimension="spatial", with_node=False):
    node = Tensor(value, requires_grad=True) if with_node else None
    return DiversityScore(value=value, dimension=dimension, node=node)


def tiny_dataset(n=48, size=8, classes=4, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.uniform(0.0, 1.0, size=(n, 1, size, size))
    labels = np.arange(n, dtype=np.int64) % classes
    return Dataset(images, labels, classes)


def tiny_config(**overrides):
    base = dict(model_family="ensemble", class_count=4, branch_max=2,
                branch_add_epochs=2, epochs=2, batch_size=16,
                learning_rate=0.01, momentum=0.9, seed=0)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_sgd_frozen_first_step():
    # frozen: theta=1, g=0.5, lr=0.1, mu=0.9 -> v=0.5, theta=0.95
    p = Tensor(1.0, requires_grad=True)
    p.grad = np.asarray(0.5)
    opt = SGD(0.1, momentum=0.9)
    opt.step([p])
    assert float(p.data) == 0.95
    np.testing.assert_array_equal(opt.velocity[p], 0.5)
    # second identical gradient: v=0.9*0.5+0.5=0.95, theta=0.95-0.095
    p.grad = np.asarray(0.5)
    opt.step([p])
    np.testing.assert_allclose(float(p.data), 0.855, rtol=1e-15)


def test_sgd_velocity_stays_with_its_tensor():
    # a new tensor at a freed tensor's address must not inherit its velocity
    opt = SGD(0.1, momentum=0.9)
    for _ in range(20):
        moved = Tensor(np.ones(3), requires_grad=True)
        moved.grad = np.ones(3)
        opt.step([moved])
        del moved
        still = Tensor(np.ones(3), requires_grad=True)
        still.grad = np.zeros(3)
        opt.step([still])
        np.testing.assert_array_equal(still.data, np.ones(3))


def test_sgd_missing_grad_counts_as_zero():
    p = Tensor([1.0, 2.0], requires_grad=True)
    opt = SGD(0.5)
    opt.step([p])
    np.testing.assert_array_equal(p.data, [1.0, 2.0])


class TensorSGD(SGD):
    """The per-tensor update that `SGD` replaced, the reference for its
    bytes: each learner's tensor its own velocity, a new one starting as
    its first gradient."""

    def step(self, params):
        for p in params:
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            v = self.velocity.get(p)
            v = g.copy() if v is None else self.momentum * v + g
            self.velocity[p] = v
            p.data = p.data - self.learning_rate * v


def test_block_updates_keep_the_per_tensor_bytes_across_branch_adds(monkeypatch):
    # a block that grew by a branch's row updates the old rows with their
    # velocity and starts the new row's from its gradient, as a new tensor did
    data = tiny_dataset(24)
    cfg = tiny_config(branch_max=3, branch_add_epochs=1, epochs=3, batch_size=8,
                      diversity_weight=1.0)

    def final_bytes(optimizer):
        monkeypatch.setattr(training, "SGD", optimizer)
        model = build_ensemble(4, branch_max=3, seed=1, input_size=8)
        train(model, data, data, cfg)
        return [p.data.tobytes() for p in model.parameters()]

    assert final_bytes(SGD) == final_bytes(TensorSGD)


@pytest.mark.parametrize("family", ["ensemble", "dual_branch"])
def test_train_lists_the_parameters_once_per_epoch_after_any_add(family, monkeypatch):
    model_class = EnsembleModel if family == "ensemble" else DualBranchModel
    listed, real = [], model_class.parameters

    def counted(self):
        listed.append(len(self.branches) if family == "ensemble" else None)
        return real(self)

    monkeypatch.setattr(model_class, "parameters", counted)
    data = tiny_dataset(24)  # three batches an epoch
    cfg = tiny_config(model_family=family, branch_max=3, branch_add_epochs=1, epochs=3,
                      batch_size=8)
    model = (build_ensemble(4, branch_max=3, seed=0, input_size=8) if family == "ensemble"
             else build_dual_branch(4, seed=0, input_size=8))
    train(model, data, data, cfg)
    assert listed == ([1, 2, 3] if family == "ensemble" else [None] * 3)


def _softmax(a):
    e = np.exp(a - a.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _vote(stack):
    """Per sample: the class most branches pick; ties go to the largest
    summed softmax among the tied classes, then the lowest index."""
    picks, probs = stack.argmax(axis=2), _softmax(stack).sum(axis=0)
    out = []
    for i in range(stack.shape[1]):
        counts = np.bincount(picks[:, i], minlength=stack.shape[2])
        tied = [k for k in range(stack.shape[2]) if counts[k] == counts.max()]
        out.append(max(tied, key=lambda k: (probs[i, k], -k)))
    return np.array(out)


def _train_model(family):
    return (build_ensemble(4, branch_max=3, seed=0, input_size=8)
            if family == "ensemble" else build_dual_branch(4, seed=0, input_size=8))


@pytest.mark.parametrize("family", ["ensemble", "dual_branch"])
def test_train_acc_counts_each_steps_own_predictions(family, monkeypatch):
    # per step, from the logits the step computes before its update: the
    # ensemble's (L, N, K) stack, or the dual model's lambda-mixed softmax
    steps, in_step = [], []
    step_name = "_ensemble_step" if family == "ensemble" else "_dual_step"
    real_step = getattr(training, step_name)

    def recording_step(model, xb, yb, cfg):
        in_step.append(True)
        try:
            return real_step(model, xb, yb, cfg)
        finally:
            in_step.pop()

    def recording(forward):
        def wrapper(self, batch):
            out = forward(self, batch)
            if in_step:
                if family == "ensemble":
                    steps.append(out[0].data.copy())
                else:
                    lam = self.lambda_balance
                    steps.append(lam * _softmax(out.local_logits.data)
                                 + (1 - lam) * _softmax(out.global_logits.data))
            return out
        return wrapper

    monkeypatch.setattr(training, step_name, recording_step)
    if family == "ensemble":
        monkeypatch.setattr(EnsembleModel, "stacked_forward",
                            recording(EnsembleModel.stacked_forward))
    else:
        monkeypatch.setattr(DualBranchModel, "forward", recording(DualBranchModel.forward))
    data = tiny_dataset(28)  # batches of 8, 8, 8, 4
    cfg = tiny_config(model_family=family, branch_max=3, branch_add_epochs=1, epochs=3,
                      batch_size=8, learning_rate=0.05)
    result = train(_train_model(family), data, data, cfg)

    assert len(steps) == 3 * 4
    for epoch, record in enumerate(result.records):
        hits = 0
        shuffle = np.random.SeedSequence([cfg.seed, 17, epoch])
        for b, (_, yb) in enumerate(batches(data, 8, shuffle_seed=shuffle)):
            step = steps[4 * epoch + b]
            preds = _vote(step) if family == "ensemble" else step.argmax(axis=1)
            hits += int((preds == yb).sum())
        assert record.train_acc == hits / len(data)


@pytest.mark.parametrize("family", ["ensemble", "dual_branch"])
def test_train_makes_one_forward_per_batch_and_one_held_out_pass(family, monkeypatch):
    # per epoch: the probe's two forwards if a branch is added, one taped
    # forward per train batch, then one no-grad forward per test batch of
    # EVAL_BATCH_SIZE, whatever the config's batch_size
    calls = []
    model_class = EnsembleModel if family == "ensemble" else DualBranchModel
    name = "stacked_forward" if family == "ensemble" else "forward"
    real = getattr(model_class, name)

    def counted(self, batch):
        out = real(self, batch)
        logits = out[0] if family == "ensemble" else out.global_logits
        calls.append("taped" if logits._backward is not None else "no_grad")
        return out

    monkeypatch.setattr(model_class, name, counted)
    # 4 train batches of 8; 2 test batches, of EVAL_BATCH_SIZE and 6
    train_set, test_set = tiny_dataset(28), tiny_dataset(EVAL_BATCH_SIZE + 6, seed=1)
    cfg = tiny_config(model_family=family, branch_max=3, branch_add_epochs=1, epochs=3,
                      batch_size=8)
    train(_train_model(family), train_set, test_set, cfg)
    epoch = ["taped"] * 4 + ["no_grad"] * 2
    if family == "ensemble":
        assert calls == epoch + (["no_grad"] * 2 + epoch) * 2
    else:
        assert calls == epoch * 3


def test_sgd_validation_and_zero_grad():
    with pytest.raises(ValueError):
        SGD(0.0)
    with pytest.raises(ValueError):
        SGD(0.1, momentum=1.0)
    with pytest.raises(ValueError):
        SGD(0.1, momentum=-0.1)
    p = Tensor(1.0, requires_grad=True)
    p.grad = np.asarray(1.0)
    SGD(0.1).zero_grad([p])
    assert p.grad is None


def test_esr_loss_frozen():
    # frozen: (1+2+3) - 1*(0.4 + 0.6) = 5.0
    total, bd = esr_loss(Tensor(6.0), score(0.4, "channel"), score(0.6), 1.0)
    assert float(total.data) == pytest.approx(5.0, abs=1e-15)
    assert bd.classification == 6.0
    assert bd.d_ch == 0.4 and bd.d_sp == 0.6 and bd.d_branch is None
    assert bd.total == float(total.data)


def test_manet_loss_frozen():
    # frozen: 0.6*1 + 0.4*2 - (0.5+0.2+0.3) = 0.4
    total, bd = manet_loss(Tensor(1.0), Tensor(2.0), score(0.5, "branch"),
                           score(0.2), score(0.3, "channel"), 0.6, 1.0)
    assert float(total.data) == pytest.approx(0.4, abs=1e-14)
    assert bd.classification == pytest.approx(1.4, abs=1e-15)
    assert bd.d_branch == 0.5 and bd.d_sp == 0.2 and bd.d_ch == 0.3
    with pytest.raises(ValueError):
        manet_loss(Tensor(1.0), Tensor(1.0), None, None, None, 1.5, 1.0)


def test_losses_recompose_from_breakdown():
    total, bd = manet_loss(Tensor(1.7), Tensor(0.3), score(0.11, "branch"),
                           score(0.23), score(0.31, "channel"), 0.6, 0.8)
    recomposed = bd.classification - 0.8 * (bd.d_branch + bd.d_sp + bd.d_ch)
    assert abs(bd.total - recomposed) < 1e-12
    total2, bd2 = esr_loss(Tensor(1.7), score(0.11, "channel"), score(0.23), 0.5)
    assert abs(bd2.total - (bd2.classification - 0.5 * (bd2.d_ch + bd2.d_sp))) < 1e-12


def test_weight_zero_skips_penalty_graph():
    cls = Tensor(2.0, requires_grad=True)
    total, bd = esr_loss(cls, score(0.5, "channel", with_node=True),
                         score(0.3, with_node=True), 0.0)
    assert total is cls  # untouched graph, not a rebuilt equal value
    assert bd.d_ch == 0.5 and bd.d_sp == 0.3  # still observed
    assert bd.total == 2.0


@pytest.mark.parametrize("family", ["ensemble", "dual_branch"])
def test_weight_zero_logs_the_weighted_scores(family):
    data = tiny_dataset(n=6)
    x, y = data.images, data.labels
    if family == "ensemble":
        model = build_ensemble(4, branch_max=3, initial_branches=3, input_size=8)
        step = _ensemble_step
        last = [bm[-1] for bm in model.forward(Tensor(x))[1]]
        pooled = {"d_sp": ("spatial", [m.spatial_map for m in last]),
                  "d_ch": ("channel", [m.channel_map for m in last])}
    else:
        model = build_dual_branch(4, input_size=8)
        step = _dual_step
        res = model.forward(Tensor(x))
        pooled = {"d_sp": ("spatial", [spatial_pool(f) for f in res.patch_features]),
                  "d_ch": ("channel", [channel_pool(f) for f in res.patch_features]),
                  "d_branch": ("branch", list(res.branch_pooled))}
    _, bd0 = step(model, x, y, tiny_config(model_family=family, diversity_weight=0.0))
    _, bd1 = step(model, x, y, tiny_config(model_family=family, diversity_weight=1.0))
    for name in ("d_sp", "d_ch", "d_branch"):
        assert getattr(bd0, name) == getattr(bd1, name)
        if name in pooled:
            dim, maps = pooled[name]
            oracle = measure_diversity([t.data for t in maps], dim).value
            assert getattr(bd0, name) == oracle
        else:
            assert getattr(bd0, name) is None


def test_missing_scores_enter_as_absent():
    total, bd = esr_loss(Tensor(2.0), None, score(0.3), 1.0)
    assert float(total.data) == pytest.approx(1.7, abs=1e-15)
    assert bd.d_ch is None
    total2, bd2 = esr_loss(Tensor(1.0), None, None, 1.0)
    assert float(total2.data) == 1.0


def test_penalty_gradient_direction():
    # diversity enters negated: its gradient pushes scores up
    d_sp = score(0.3, with_node=True)
    d_ch = score(0.2, "channel", with_node=True)
    cls = Tensor(1.0, requires_grad=True)
    total, _ = esr_loss(cls, d_ch, d_sp, 2.0)
    backward(total)
    assert float(cls.grad) == 1.0
    assert float(d_sp.node.grad) == -2.0
    assert float(d_ch.node.grad) == -2.0


def test_loss_breakdown_finite():
    assert LossBreakdown(1.0, 0.1, None, None, 1.0).finite()
    assert LossBreakdown(1.0, 0.1, 0.2, 0.3, 0.4).finite()
    assert not LossBreakdown(float("nan"), 0.1, None, None, 1.0).finite()
    assert not LossBreakdown(1.0, float("inf"), None, None, 1.0).finite()


_PART_NAMES = ("classification", "d_sp", "d_ch", "d_branch", "total")


def test_loss_breakdown_parts_are_its_fields_but_predictions():
    bd = LossBreakdown(1.0, 0.1, 0.2, None, 0.7, predictions=np.zeros(3))
    assert bd.parts() == dict(zip(_PART_NAMES, (1.0, 0.1, 0.2, None, 0.7)))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("part", _PART_NAMES)
def test_each_non_finite_part_is_caught_and_named(part, bad):
    values = dict(zip(_PART_NAMES, (1.0, 0.1, 0.2, 0.3, 0.4)))
    values[part] = bad
    bd = LossBreakdown(**values)
    assert not bd.finite()
    err = NonFiniteLossError(3, 7, bd)
    assert err.epoch == 3 and err.batch_index == 7 and err.breakdown is bd
    assert "epoch 4" in str(err) and "batch 7" in str(err)
    assert f"{part}={bad}" in str(err)
    # the finite parts are named beside it, in field order
    assert str(err).endswith(", ".join(f"{k}={v}" for k, v in values.items()))


def test_non_finite_error_message():
    bd = LossBreakdown(float("inf"), 0.5, None, None, float("inf"))
    msg = str(NonFiniteLossError(3, 7, bd))
    assert msg.endswith("classification=inf, d_sp=0.5, total=inf")
    assert "d_ch" not in msg and "d_branch" not in msg


def test_growth_schedule_trajectory():
    train_set = tiny_dataset(48)
    test_set = tiny_dataset(16, seed=1)
    cfg = tiny_config(branch_max=3, branch_add_epochs=2, epochs=6)
    model = build_ensemble(4, branch_max=3, seed=0, input_size=8)
    result = train(model, train_set, test_set, cfg)
    assert [r.branch_count for r in result.records] == [1, 1, 2, 2, 3, 3]
    assert [c.epoch for c in result.add_checks] == [3, 5]
    assert all(c.bit_exact for c in result.add_checks)
    assert all(c.max_abs_diff == 0.0 for c in result.add_checks)


def test_branch_add_check_reports_a_moved_branch(monkeypatch):
    nudge = 0.25
    real_add = training.add_branch

    def add_and_nudge(model):
        real_add(model)
        bias = model.stacked.head.bias  # row 0 is the first branch
        moved = bias.data.copy()
        moved[0, 0] += nudge
        bias.data = moved

    monkeypatch.setattr(training, "add_branch", add_and_nudge)
    cfg = tiny_config(branch_max=2, branch_add_epochs=1, epochs=2)
    model = build_ensemble(4, branch_max=2, seed=0, input_size=8)
    result = train(model, tiny_dataset(32), tiny_dataset(8, seed=1), cfg)
    (check,) = result.add_checks
    assert check.epoch == 2 and check.branch_count == 2
    assert check.bit_exact is False
    assert check.max_abs_diff == pytest.approx(nudge, abs=1e-12)


def test_records_are_one_based_and_complete():
    cfg = tiny_config(epochs=2, branch_max=1)
    model = build_ensemble(4, branch_max=1, seed=0, input_size=8)
    result = train(model, tiny_dataset(32), tiny_dataset(8, seed=1), cfg)
    assert [r.epoch for r in result.records] == [1, 2]
    for r in result.records:
        assert isinstance(r, EpochRecord)
        assert 0.0 <= r.train_acc <= 1.0 and 0.0 <= r.test_acc <= 1.0
        assert np.isfinite(r.loss_total) and np.isfinite(r.loss_cls)
        assert r.d_sp is not None and r.d_ch is not None
        assert r.d_branch is None  # ensemble family


def test_train_deterministic_repeat():
    def run():
        cfg = tiny_config(epochs=3, branch_max=2)
        model = build_ensemble(4, branch_max=2, seed=0, input_size=8)
        res = train(model, tiny_dataset(32), tiny_dataset(8, seed=1), cfg)
        return res.records, [p.data.copy() for p in model.parameters()]

    rec1, w1 = run()
    rec2, w2 = run()
    assert rec1 == rec2
    for a, b in zip(w1, w2):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("family", ["ensemble", "dual_branch"])
def test_float32_images_train_as_their_float64_widening(family):
    # a batch of float32 images widens exactly when it becomes a Tensor;
    # the ensemble adds a branch at epoch 3, probing with float32 images
    narrow = [Dataset(ds.images.astype(np.float32), ds.labels, 4)
              for ds in (tiny_dataset(32), tiny_dataset(8, seed=1))]
    wide = [Dataset(ds.images.astype(np.float64), ds.labels, 4) for ds in narrow]
    assert narrow[0].images.dtype == np.float32 and wide[0].images.dtype == np.float64
    runs = []
    for train_set, test_set in (narrow, wide):
        model = (build_ensemble(4, branch_max=2, seed=0, input_size=8) if family == "ensemble"
                 else build_dual_branch(4, seed=0, input_size=8))
        res = train(model, train_set, test_set, tiny_config(model_family=family, epochs=3))
        runs.append((res, [p.data for p in model.parameters()]))
    (res_a, w_a), (res_b, w_b) = runs
    assert res_a == res_b and len(w_a) == len(w_b)
    for a, b in zip(w_a, w_b):
        np.testing.assert_array_equal(a, b)


def _traced_peak_mib(fn) -> float:
    """tracemalloc's peak over one call of ``fn``, after a warm-up call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_held_out_pass_peaks_below_a_training_step():
    # the ensemble32 benchmark's shape: 3 branches on 32 px images, steps
    # of 16; an inference pass over its 160 held-out images must not set
    # the training phase's peak (at batches of 64 it read 17.1 MiB, a
    # step 15.3)
    rng = np.random.default_rng(0)
    ds = Dataset(rng.uniform(0.0, 1.0, (160, 1, 32, 32)).astype(np.float32),
                 np.arange(160) % 8, 8)
    model = build_ensemble(8, branch_max=3, seed=0, input_size=32, initial_branches=3)
    cfg = ExperimentConfig("ensemble", batch_size=16)
    opt, params = SGD(0.01, 0.9), model.parameters()

    def step():
        loss, _ = _ensemble_step(model, ds.images[:16], ds.labels[:16], cfg)
        opt.zero_grad(params)
        backward(loss)
        opt.step(params)

    assert _traced_peak_mib(lambda: predict_dataset(model, ds)) < _traced_peak_mib(step)


def test_first_epoch_loss_near_log_k():
    # fresh heads are near-zero logits: per-branch CE starts around ln K
    cfg = tiny_config(epochs=1, branch_max=1, learning_rate=1e-6)
    model = build_ensemble(4, branch_max=1, seed=0, input_size=8)
    res = train(model, tiny_dataset(64), tiny_dataset(16, seed=1), cfg)
    assert abs(res.records[0].loss_cls - np.log(4)) < 0.2


def test_diversity_switches_control_records():
    cfg = tiny_config(epochs=1, branch_max=2, diversity_spatial=False,
                      diversity_channel=True)
    model = build_ensemble(4, branch_max=2, seed=0, input_size=8, initial_branches=2)
    res = train(model, tiny_dataset(32), tiny_dataset(8, seed=1), cfg)
    assert res.records[0].d_sp is None
    assert res.records[0].d_ch is not None


def test_attention_off_means_no_ensemble_diversity():
    cfg = tiny_config(epochs=1, branch_max=2, attention_enabled=False,
                      diversity_spatial=False, diversity_channel=False)
    model = build_ensemble(4, branch_max=2, seed=0, input_size=8,
                           attention_enabled=False, initial_branches=2)
    res = train(model, tiny_dataset(32), tiny_dataset(8, seed=1), cfg)
    r = res.records[0]
    assert r.d_sp is None and r.d_ch is None


def test_dual_training_records_branch_diversity():
    cfg = ExperimentConfig(model_family="dual_branch", class_count=4,
                           epochs=2, batch_size=16, learning_rate=0.01,
                           momentum=0.9, seed=0)
    model = build_dual_branch(4, seed=0, input_size=8)
    res = train(model, tiny_dataset(32), tiny_dataset(8, seed=1), cfg)
    for r in res.records:
        assert r.branch_count == 2
        assert r.d_branch is not None
        assert r.d_sp is not None and r.d_ch is not None
    assert res.add_checks == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_loss_aborts_with_location():
    model = build_ensemble(4, branch_max=1, seed=0, input_size=8)
    model.branches[0].head.weights.data[:] = np.inf
    cfg = tiny_config(epochs=1, branch_max=1)
    with pytest.raises(NonFiniteLossError) as e:
        train(model, tiny_dataset(32), tiny_dataset(8, seed=1), cfg)
    assert e.value.epoch == 0
    assert e.value.batch_index == 0


def test_predict_dataset_batch_size_invariant():
    # predict_dataset's batches of EVAL_BATCH_SIZE predict as forwards of
    # 7-image chunks do, for both families
    ds = tiny_dataset(EVAL_BATCH_SIZE + 6)
    for model in (build_ensemble(4, branch_max=2, seed=0, input_size=8, initial_branches=2),
                  build_dual_branch(4, seed=0, input_size=8)):
        chunks = []
        with autodiff.no_grad():
            for xb, _ in batches(ds, 7, shuffle_seed=None):
                if isinstance(model, EnsembleModel):
                    chunks.append(ensemble_predict(model.stacked_forward(Tensor(xb))[0].data))
                else:
                    res = model.forward(Tensor(xb))
                    chunks.append(dual_predict(res.global_logits, res.local_logits,
                                               model.lambda_balance))
        np.testing.assert_array_equal(predict_dataset(model, ds), np.concatenate(chunks))


def test_evaluate_report_shape():
    model = build_ensemble(4, branch_max=2, seed=0, input_size=8, initial_branches=2)
    ds = tiny_dataset(24)
    report = evaluate(model, ds)
    assert 0.0 <= report.accuracy <= 1.0
    assert len(report.per_class) == 4
    assert len(report.per_branch) == 2
    dual = build_dual_branch(4, seed=0, input_size=8)
    assert len(evaluate(dual, ds).per_branch) == 2


def test_evaluate_per_class_none_for_absent_class():
    ds = tiny_dataset(24)
    only_zeros = Dataset(ds.images, np.zeros(24, dtype=np.int64), 4)
    model = build_ensemble(4, branch_max=1, seed=0, input_size=8)
    report = evaluate(model, only_zeros)
    assert report.per_class[1] is None


def taped_report(model, dataset, batch_size):
    """`evaluate`'s numbers from plain taped forwards over the same batches."""
    preds, branch_preds = [], []
    for xb, _ in batches(dataset, min(batch_size, len(dataset)), shuffle_seed=None):
        if isinstance(model, EnsembleModel):
            logits = model.forward(Tensor(xb))[0]
            preds.append(ensemble_predict(np.stack([lg.data for lg in logits])))
        else:
            res = model.forward(Tensor(xb))
            logits = [res.local_logits, res.global_logits]
            preds.append(dual_predict(res.global_logits, res.local_logits,
                                      model.lambda_balance))
        assert all(lg.requires_grad and lg._backward is not None for lg in logits)
        branch_preds.append([lg.data.argmax(axis=1) for lg in logits])
    preds = np.concatenate(preds)
    labels = dataset.labels
    per_class = [float((preds[labels == k] == k).mean()) if (labels == k).any() else None
                 for k in range(dataset.class_count)]
    per_branch = [float((np.concatenate(p) == labels).mean()) for p in zip(*branch_preds)]
    return float((preds == labels).mean()), per_class, per_branch


@pytest.mark.parametrize("family", ["ensemble", "dual_branch"])
def test_inference_records_no_tape(family, monkeypatch):
    if family == "ensemble":
        model = build_ensemble(4, branch_max=3, seed=2, input_size=8, initial_branches=2)
    else:
        model = build_dual_branch(4, seed=2, input_size=8)
    cfg = ExperimentConfig.from_dict({"model_family": family, "class_count": 4,
                                      **({"diversity_tap": "all"} if family == "ensemble"
                                         else {})})
    ds = tiny_dataset(20, seed=5)
    expected = taped_report(model, ds, batch_size=EVAL_BATCH_SIZE)

    taped = []
    from_op = Tensor.from_op.__func__

    def counting_from_op(cls, data, parents, back, op):
        out = from_op(cls, data, parents, back, op)
        if out._parents or out._backward is not None:
            taped.append(op)
        return out

    monkeypatch.setattr(Tensor, "from_op", classmethod(counting_from_op))
    report = evaluate(model, ds)
    predict_dataset(model, ds)
    resolved_gammas(model, ds.images[:1], cfg)
    if family == "ensemble":
        check = _checked_add(model, ds.images[:8], epoch=1)
        assert check.bit_exact and len(model.branches) == 3
        # the branch added inside no_grad still trains
        assert all(p.requires_grad for p in model.branches[-1].parameters())
    assert taped == []
    # the counter sees a taped forward
    model.forward(Tensor(ds.images[:2]))
    assert taped != []
    assert (report.accuracy, report.per_class, report.per_branch) == expected


def test_evaluate_leaves_the_next_step_gradients_bit_identical():
    model = build_ensemble(4, branch_max=2, seed=3, input_size=8, initial_branches=2)
    cfg = tiny_config(diversity_weight=1.0)
    ds = tiny_dataset(16, seed=7)
    opt = SGD(0.01)

    def step_grads():
        opt.zero_grad(model.parameters())
        backward(_ensemble_step(model, ds.images[:8], ds.labels[:8], cfg)[0])
        return [p.grad.tobytes() for p in model.parameters()]

    plain = step_grads()
    evaluate(model, ds)
    assert step_grads() == plain


@pytest.mark.parametrize("family", ["ensemble", "dual_branch"])
def test_trained_model_predicts_alike_without_and_with_a_tape(family):
    # inference convs read their windows in another order than the taped
    # ones, so the logits may differ by rounding; the predictions must not
    model = _train_model(family)
    train_set, test_set = tiny_dataset(32, seed=3), tiny_dataset(40, seed=4)
    train(model, train_set, test_set, tiny_config(model_family=family, branch_max=3,
                                                  branch_add_epochs=1, epochs=3, batch_size=8,
                                                  learning_rate=0.05, diversity_weight=1.0))
    preds, gaps = [], []
    for xb, _ in batches(test_set, 16, shuffle_seed=None):
        if family == "ensemble":
            logits = model.stacked_forward(Tensor(xb))[0]
            preds.append(ensemble_predict(logits.data))
        else:
            res = model.forward(Tensor(xb))
            logits = res.global_logits
            preds.append(dual_predict(res.global_logits, res.local_logits,
                                      model.lambda_balance))
        assert logits._backward is not None
        with autodiff.no_grad():
            free = (model.stacked_forward(Tensor(xb))[0] if family == "ensemble"
                    else model.forward(Tensor(xb)).global_logits)
        gaps.append(np.abs(free.data - logits.data).max() / np.abs(logits.data).max())
    np.testing.assert_array_equal(predict_dataset(model, test_set),
                                  np.concatenate(preds))
    assert max(gaps) <= 1e-12


def record_ops(monkeypatch) -> list:
    """The op kind of each tape node (a result with parents) recorded from
    now on, in order."""
    recorded = []
    from_op = Tensor.from_op.__func__

    def counting_from_op(cls, data, parents, back, op):
        out = from_op(cls, data, parents, back, op)
        if out._parents:
            recorded.append(op)
        return out

    monkeypatch.setattr(Tensor, "from_op", classmethod(counting_from_op))
    return recorded


def test_ensemble_step_tape_does_not_grow_with_branches(monkeypatch):
    # each layer of all branches is one grouped op on parameter blocks, so
    # the nodes one step records, the gradient writes of its backward and
    # the updates of the optimizer stay flat in L (per-branch ops gave
    # about 5x nodes from L=3 to 15, per-learner gradient splits about 4x
    # writes)
    recorded = record_ops(monkeypatch)
    writes = []
    for module in (autodiff, diversity, nn):
        real = module.accumulate
        monkeypatch.setattr(module, "accumulate",
                            lambda t, g, real=real: writes.append(1) or real(t, g))
    data = tiny_dataset(n=12, classes=3)
    cfg = tiny_config(class_count=3, branch_max=15, diversity_tap="all")
    counts, updates = {}, {}
    for branches in (3, 15):
        model = build_ensemble(3, branch_max=15, seed=0, input_size=8,
                               initial_branches=branches)
        recorded.clear()
        writes.clear()
        backward(_ensemble_step(model, data.images, data.labels, cfg)[0])
        counts[branches] = (len(recorded), len(writes))
        opt = SGD(0.01, momentum=0.9)
        opt.step(model.parameters())
        updates[branches] = len(opt.velocity)
    assert counts[15][0] <= 1.1 * counts[3][0], counts
    assert counts[15][1] <= 1.1 * counts[3][1], counts
    assert updates[15] == updates[3], updates


def looped_dual_step(model, xb, yb, cfg):
    """`_dual_step` with the dual forward as a loop over the four patch
    paths, each a group of one, reassembled by concat: the bit-exact
    oracle for the grouped patch paths. Returns (loss, paths, local_vec,
    local_logits, global_logits)."""
    shared = model.backbone.forward(Tensor(xb))
    g = relu(conv2d(shared, model.global_conv))
    if model.global_attn is not None:
        g, _ = attention_apply(g, model.global_attn)
    h2, w2 = shared.data.shape[2] // 2, shared.data.shape[3] // 2
    quads = [shared[..., :h2, :w2], shared[..., :h2, w2:],
             shared[..., h2:, :w2], shared[..., h2:, w2:]]
    paths = []
    for patch, conv, attn in zip(quads, model.local_convs, model.local_attns):
        p = relu(conv2d(patch, conv))
        if attn is not None:
            p, _ = attention_apply(p, attn)
        paths.append(p)
    local_map = concat([concat(paths[:2], axis=3), concat(paths[2:], axis=3)], axis=2)
    local_vec, global_vec = global_avg_pool(local_map), global_avg_pool(g)
    local_logits = linear(local_vec, model.local_head)
    global_logits = linear(global_vec, model.global_head)

    learners = {"spatial": [spatial_pool(p, op=cfg.pool_op) for p in paths],
                "channel": [channel_pool(p, op=cfg.pool_op) for p in paths],
                "branch": [local_vec, global_vec]}
    scores = {k: diversity_of_pooled(v, k, gamma=cfg.gamma, normalize=cfg.normalize_features)
              for k, v in learners.items()}
    loss, _ = manet_loss(softmax_cross_entropy(local_logits, yb),
                         softmax_cross_entropy(global_logits, yb), scores["branch"],
                         scores["spatial"], scores["channel"], model.lambda_balance,
                         cfg.diversity_weight)
    return loss, paths, local_vec, local_logits, global_logits


@pytest.mark.parametrize("attention", [True, False])
@pytest.mark.parametrize("pool_op", ["mean", "max"])
def test_dual_patch_paths_bitwise_equal_the_per_path_loop(attention, pool_op):
    model = build_dual_branch(4, attention_enabled=attention, seed=7301, input_size=32)
    data = tiny_dataset(n=6, size=32, seed=7301)
    cfg = ExperimentConfig(model_family="dual_branch", class_count=4, pool_op=pool_op,
                           attention_enabled=attention)
    params = model.parameters()

    def step_bits(step):
        for p in params:
            p.grad = None
        loss = step(model, data.images, data.labels, cfg)[0]
        backward(loss)
        return loss.data.tobytes(), [p.grad.tobytes() for p in params]

    res = model.forward(Tensor(data.images))
    _, paths, local_vec, local_logits, global_logits = looped_dual_step(
        model, data.images, data.labels, cfg)
    for j, path in enumerate(paths):
        assert res.patch_stack.data[j].tobytes() == path.data.tobytes(), j
        assert res.patch_features[j].data.tobytes() == path.data.tobytes(), j
    assert res.branch_pooled[0].data.tobytes() == local_vec.data.tobytes()
    assert res.local_logits.data.tobytes() == local_logits.data.tobytes()
    assert res.global_logits.data.tobytes() == global_logits.data.tobytes()
    assert step_bits(_dual_step) == step_bits(lambda *a: looped_dual_step(*a)[:1])


def test_dual_step_tape_size(monkeypatch):
    # the four patch paths run as one grouped conv and attention call: one
    # step records 6 convs (base 2, global and local 1 each, and one
    # spatial conv per attention call), not 12
    recorded = record_ops(monkeypatch)
    model = build_dual_branch(4, seed=0, input_size=32)
    data = tiny_dataset(n=4, size=32)
    backward(_dual_step(model, data.images, data.labels,
                        ExperimentConfig(model_family="dual_branch", class_count=4))[0])
    assert recorded.count("conv2d") == 6
    assert len(recorded) == 78  # 138 with a conv2d and attention_apply call per path


def _interior_nodes(root) -> list:
    """Every op result with parent links reachable from ``root``, root first."""
    seen, stack, nodes = set(), [root], []
    while stack:
        node = stack.pop()
        if node in seen or not node._parents:
            continue
        seen.add(node)
        nodes.append(node)
        stack.extend(node._parents)
    return nodes


@pytest.mark.parametrize("family", ["ensemble", "dual_branch"])
def test_backward_frees_the_step_graph_it_walked(family):
    # backward consumes the step's graph: each interior node keeps only its
    # data, so once only `loss` is held, every other activation is freed
    data = tiny_dataset(n=8, classes=3)
    cfg = tiny_config(model_family=family, class_count=3, diversity_tap="all")
    if family == "ensemble":
        model = build_ensemble(3, branch_max=3, seed=0, input_size=8, initial_branches=3)
        step = _ensemble_step
    else:
        model = build_dual_branch(3, seed=0, input_size=8)
        step = _dual_step
    loss, _ = step(model, data.images, data.labels, cfg)
    nodes = _interior_nodes(loss)
    assert len(nodes) > 20
    before = [node.data.copy() for node in nodes]
    arrays = [weakref.ref(node.data) for node in nodes[1:]
              if isinstance(node.data, np.ndarray)]  # a reduction may give a numpy scalar
    assert len(arrays) > 20
    backward(loss)
    for node, data_before in zip(nodes, before):
        assert node.grad is None and node._backward is None and node._parents == ()
        assert node.data.tobytes() == data_before.tobytes()
    assert all(p.grad is not None for p in model.parameters())
    del nodes, node, before, data_before
    assert [ref() for ref in arrays if ref() is not None] == []
