"""Network primitives against independent oracles."""

import numpy as np
import pytest

from divreg import models, nn
from divreg.autodiff import ShapeMismatch, Tensor, accumulate, backward, no_grad, sigmoid
from divreg.nn import (AttentionBlock, ConvLayer, DenseLayer, Module, add_learner,
                       attention_apply, broadcast_mul, conv2d, global_avg_pool, linear,
                       reduce_max, softmax_cross_entropy, stack_learners)
from tape_oracle import learner_attention, learner_conv2d, learner_linear, tsum


def var(data):
    return Tensor(data, requires_grad=True)


def conv_oracle(x, w, b, stride, padding):
    """Plain nested-loop cross-correlation; the reference the fast path
    must agree with."""
    n, ci, h, wd_ = x.shape
    o, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - k) // stride + 1
    ow = (wd_ + 2 * padding - k) // stride + 1
    out = np.zeros((n, o, oh, ow))
    for ni in range(n):
        for oi in range(o):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[ni, :, i * stride:i * stride + k, j * stride:j * stride + k]
                    out[ni, oi, i, j] = (patch * w[oi]).sum() + b[oi]
    return out


def test_conv_layer_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        ConvLayer(1, 1, 2, rng=rng)
    with pytest.raises(ValueError):
        ConvLayer(1, 1, 0, rng=rng)
    with pytest.raises(ValueError):
        ConvLayer(1, 1, 3, stride=0, rng=rng)
    with pytest.raises(ValueError):
        ConvLayer(1, 1, 3, padding=-1, rng=rng)
    with pytest.raises(ValueError):
        ConvLayer(1, 1, 5, rng=rng).out_size(3, 3)


def test_conv_layer_init_shapes():
    rng = np.random.default_rng(0)
    layer = ConvLayer(3, 8, 3, rng=rng)
    assert layer.weights.data.shape == (8, 3, 3, 3)
    assert layer.bias.data.shape == (8,)
    assert layer.weights.requires_grad and layer.bias.requires_grad
    assert np.array_equal(layer.bias.data, np.zeros(8))
    assert layer.out_size(8, 8) == (6, 6)


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
def test_conv2d_matches_loop_oracle(stride, padding):
    rng = np.random.default_rng(11)
    layer = ConvLayer(3, 4, 3, stride=stride, padding=padding, rng=rng)
    layer.bias.data = rng.normal(size=4)
    x = rng.normal(size=(2, 3, 7, 7))
    got = conv2d(Tensor(x), layer).data
    want = conv_oracle(x, layer.weights.data, layer.bias.data, stride, padding)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_conv2d_one_by_one_identity_kernel():
    layer = ConvLayer(2, 2, 1, rng=np.random.default_rng(0))
    layer.weights.data = np.eye(2).reshape(2, 2, 1, 1)
    x = np.random.default_rng(4).normal(size=(1, 2, 4, 4))
    np.testing.assert_array_equal(conv2d(Tensor(x), layer).data, x)


def test_conv2d_rejects_wrong_channels():
    layer = ConvLayer(3, 4, 3, rng=np.random.default_rng(0))
    with pytest.raises(ShapeMismatch):
        conv2d(Tensor(np.zeros((1, 2, 5, 5))), layer)
    for shape in ((5, 5), (3, 5, 5)):  # batched input only
        with pytest.raises(ShapeMismatch):
            conv2d(Tensor(np.zeros(shape)), layer)


def test_conv2d_input_gradient_matches_oracle_fd():
    # forward oracle + FD = fully independent check of the conv backward
    rng = np.random.default_rng(7)
    layer = ConvLayer(2, 2, 3, stride=2, padding=1, rng=rng)
    x = rng.normal(size=(1, 2, 5, 5))
    xt = var(x)
    backward(tsum(conv2d(xt, layer)))
    eps = 1e-6
    fd = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        hi, lo = x.copy(), x.copy()
        hi[idx] += eps
        lo[idx] -= eps
        fd[idx] = (conv_oracle(hi, layer.weights.data, layer.bias.data, 2, 1).sum()
                   - conv_oracle(lo, layer.weights.data, layer.bias.data, 2, 1).sum()) / (2 * eps)
    np.testing.assert_allclose(xt.grad, fd, rtol=1e-6, atol=1e-8)


def test_conv2d_backward_keeps_no_padded_copy():
    # the tape holds the im2col rows the backward needs, not the padded input
    layer = ConvLayer(3, 4, 3, stride=1, padding=1, rng=np.random.default_rng(2))
    out = conv2d(var(np.ones((2, 3, 6, 6))), layer)
    held = [c.cell_contents for c in out._backward.__closure__]
    assert not [a.shape for a in held if isinstance(a, np.ndarray) and a.shape == (2, 3, 8, 8)]
    # channels-last output, the layout the following reductions read
    assert out.data.shape == (2, 4, 6, 6) and out.data.strides[1] == 8


def test_linear_matches_numpy():
    rng = np.random.default_rng(5)
    layer = DenseLayer(4, 3, rng=rng)
    layer.bias.data = rng.normal(size=3)
    x = rng.normal(size=(6, 4))
    np.testing.assert_array_equal(linear(Tensor(x), layer).data,
                                  x @ layer.weights.data + layer.bias.data)
    with pytest.raises(ShapeMismatch):
        linear(Tensor(np.zeros((6, 5))), layer)


def test_linear_grads_algebraic():
    layer = DenseLayer(2, 2, rng=np.random.default_rng(0))
    layer.weights.data = np.array([[1.0, 2.0], [3.0, 4.0]])
    x = var(np.array([[1.0, 1.0]]))
    backward(tsum(linear(x, layer)))
    np.testing.assert_array_equal(x.grad, [[3.0, 7.0]])
    np.testing.assert_array_equal(layer.weights.grad, [[1.0, 1.0], [1.0, 1.0]])
    np.testing.assert_array_equal(layer.bias.grad, [1.0, 1.0])


def test_dense_gain_scales():
    relu_w = DenseLayer(100, 1, rng=np.random.default_rng(0), gain="relu").weights.data
    lin_w = DenseLayer(100, 1, rng=np.random.default_rng(0), gain="linear").weights.data
    np.testing.assert_allclose(relu_w, lin_w * np.sqrt(2.0), rtol=1e-12)


def test_reduce_max_matches_numpy():
    d = np.random.default_rng(9).normal(size=(3, 4, 5))
    for axis in (None, 0, 2, (1, 2)):
        for keep in (False, True):
            np.testing.assert_array_equal(
                reduce_max(Tensor(d), axis=axis, keepdims=keep).data,
                d.max(axis=axis, keepdims=keep))


def test_reduce_max_ties_route_to_first():
    x = var(np.array([2.0, 5.0, 5.0, 1.0]))
    backward(reduce_max(x))
    np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0, 0.0])


def test_reduce_max_grad_scatters():
    x = var(np.array([[1.0, 3.0], [4.0, 2.0]]))
    backward(tsum(reduce_max(x, axis=1)))
    np.testing.assert_array_equal(x.grad, [[0.0, 1.0], [1.0, 0.0]])


def test_broadcast_mul_shapes_and_grads():
    x = var(np.ones((2, 3, 2, 2)))
    m = var(np.full((2, 3, 1, 1), 2.0))
    out = broadcast_mul(x, m)
    assert out.data.shape == (2, 3, 2, 2)
    backward(tsum(out))
    np.testing.assert_array_equal(x.grad, np.full((2, 3, 2, 2), 2.0))
    # m's grad sums the 4 broadcast positions of ones
    np.testing.assert_array_equal(m.grad, np.full((2, 3, 1, 1), 4.0))
    with pytest.raises(ShapeMismatch):
        broadcast_mul(x, var(np.ones((2, 3, 2))))
    with pytest.raises(ShapeMismatch):
        broadcast_mul(x, var(np.ones((2, 2, 1, 1))))


def test_cross_entropy_frozen_value():
    # frozen oracle: -log softmax([1,2,3])[2]
    loss = softmax_cross_entropy(Tensor([[1.0, 2.0, 3.0]]), np.array([2]))
    assert abs(float(loss.data) - 0.4076059644443804) < 1e-15


def test_cross_entropy_uniform_is_log_k():
    for k in (2, 8):
        loss = softmax_cross_entropy(Tensor(np.zeros((1, k))), np.array([0]))
        np.testing.assert_allclose(float(loss.data), np.log(k), rtol=1e-15)


def test_cross_entropy_batch_is_mean_of_rows():
    logits = np.array([[1.0, 2.0, 3.0], [0.5, -0.5, 0.0]])
    labels = np.array([2, 0])
    batch = float(softmax_cross_entropy(Tensor(logits), labels).data)
    singles = [float(softmax_cross_entropy(Tensor(row[None]), np.array([lab])).data)
               for row, lab in zip(logits, labels)]
    np.testing.assert_allclose(batch, np.mean(singles), rtol=1e-15)


def test_cross_entropy_gradient_is_softmax_minus_onehot():
    logits = var(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
    labels = np.array([2, 1])
    backward(softmax_cross_entropy(logits, labels))
    z = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
    p = z / z.sum(axis=1, keepdims=True)
    p[np.arange(2), labels] -= 1.0
    np.testing.assert_allclose(logits.grad, p / 2.0, rtol=1e-12)


def test_cross_entropy_stable_at_large_logits():
    with np.errstate(over="raise"):
        loss = softmax_cross_entropy(Tensor([[1000.0, 0.0]]), np.array([0]))
    assert float(loss.data) < 1e-12


def test_cross_entropy_label_out_of_range():
    for label in (2, -1):
        with pytest.raises(ValueError, match="out of range"):
            softmax_cross_entropy(Tensor([[0.0, 0.0]]), np.array([label]))
    with pytest.raises(ShapeMismatch):
        softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 1, 2]))
    with pytest.raises(ShapeMismatch):  # batched logits only
        softmax_cross_entropy(Tensor([0.0, 0.0]), 0)


def test_global_avg_pool_shapes():
    d4 = np.random.default_rng(0).normal(size=(2, 3, 4, 5))
    np.testing.assert_array_equal(global_avg_pool(Tensor(d4)).data, d4.mean(axis=(2, 3)))
    one = global_avg_pool(Tensor(d4[:1])).data
    assert one.shape == (1, 3)
    np.testing.assert_array_equal(one, d4[:1].mean(axis=(2, 3)))
    for shape in ((3, 4), (3, 4, 5)):  # batched input only
        with pytest.raises(ShapeMismatch):
            global_avg_pool(Tensor(np.zeros(shape)))


def test_attention_block_validation_and_params():
    with pytest.raises(ValueError):
        AttentionBlock(6, rng=np.random.default_rng(0))
    block = AttentionBlock(8, spatial_kernel=3, rng=np.random.default_rng(0))
    assert len(block.parameters()) == 6
    assert block.fc1.weights.data.shape == (8, 2)
    assert block.fc2.weights.data.shape == (2, 8)
    assert block.spatial_conv.weights.data.shape == (1, 2, 3, 3)


def test_module_parameters_follow_assignment_order_and_skip_switched_off_layers():
    rng = np.random.default_rng(0)

    class Stage(Module):
        def __init__(self, attention):
            self.head = DenseLayer(4, 2, rng=rng)
            self.width = 4
            self.attn = AttentionBlock(4, spatial_kernel=3, rng=rng) if attention else None
            self.scale = Tensor(1.0, requires_grad=True)
            self.conv = ConvLayer(2, 4, 3, rng=rng)

    on, off = Stage(True), Stage(False)
    a = on.attn
    want = [on.head.weights, on.head.bias, a.fc1.weights, a.fc1.bias, a.fc2.weights,
            a.fc2.bias, a.spatial_conv.weights, a.spatial_conv.bias, on.scale,
            on.conv.weights, on.conv.bias]
    assert [id(t) for t in on.parameters()] == [id(t) for t in want]
    want = [off.head.weights, off.head.bias, off.scale, off.conv.weights, off.conv.bias]
    assert [id(t) for t in off.parameters()] == [id(t) for t in want]
    # grouping swaps each tensor for a row of its block and keeps the walk's order
    group = stack_learners([on, Stage(True)])
    assert [p.data.shape[1:] for p in group.parameters()] == \
        [p.data.shape for p in on.parameters()]
    assert all(p.block is b for p, b in zip(on.parameters(), group.parameters()))


def test_attention_apply_shapes_and_ranges():
    rng = np.random.default_rng(1)
    block = AttentionBlock(4, spatial_kernel=3, rng=rng)
    x = rng.normal(size=(2, 4, 6, 6))
    refined, maps = attention_apply(Tensor(x), block)
    assert refined.data.shape == x.shape
    assert maps.channel_map.data.shape == (2, 4, 1, 1)
    assert maps.spatial_map.data.shape == (2, 1, 6, 6)
    for m in (maps.channel_map.data, maps.spatial_map.data):
        assert m.min() > 0.0 and m.max() < 1.0


def test_attention_apply_rejects_channel_mismatch():
    block = AttentionBlock(4, spatial_kernel=3, rng=np.random.default_rng(0))
    with pytest.raises(ShapeMismatch):
        attention_apply(Tensor(np.zeros((2, 3, 5, 5))), block)
    with pytest.raises(ShapeMismatch):  # batched input only
        attention_apply(Tensor(np.zeros((4, 5, 5))), block)


def test_attention_gating_is_multiplicative():
    # zero input stays zero through both gates
    block = AttentionBlock(4, spatial_kernel=3, rng=np.random.default_rng(5))
    refined, _ = attention_apply(Tensor(np.zeros((1, 4, 4, 4))), block)
    np.testing.assert_array_equal(refined.data, np.zeros((1, 4, 4, 4)))


# --- the learner axis ------------------------------------------------------

def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _feed(outputs, upstreams):
    """A scalar root whose backward hands each output a fixed gradient."""
    def back(_g):
        for t, u in zip(outputs, upstreams):
            accumulate(t, u)

    return Tensor.from_op(np.asarray(0.0), tuple(outputs), back, "feed")


def _grouped_case(case, learners, rng):
    """(layers, input data, whether the input is shared, grouped op, oracle op)."""
    if case.startswith("conv"):
        layers = [ConvLayer(6, 5, 3, stride=2, padding=1, rng=rng) for _ in range(learners)]
        shape = (4, 6, 5, 5) if case == "conv_shared" else (learners, 4, 6, 5, 5)
        return layers, rng.normal(size=shape), case == "conv_shared", \
            lambda x, g: [conv2d(x, g)], lambda x, l: [learner_conv2d(x, l)]
    if case == "linear":
        layers = [DenseLayer(7, 3, rng=rng) for _ in range(learners)]
        return layers, rng.normal(size=(learners, 5, 7)), False, \
            lambda x, g: [linear(x, g)], lambda x, l: [learner_linear(x, l)]
    layers = [AttentionBlock(8, spatial_kernel=3, rng=rng) for _ in range(learners)]

    def run(op):
        def apply(x, block):
            refined, maps = op(x, block)
            return [refined, maps.channel_map, maps.spatial_map]
        return apply

    return layers, rng.normal(size=(learners, 4, 8, 5, 5)) + 0.2, False, \
        run(attention_apply), run(learner_attention)


def _grouped_run(op, group, layers, data, upstreams):
    """Outputs, input gradient and every layer's parameter gradient of one
    run of ``op`` with ``group``."""
    params = [p for l in layers for p in l.parameters()]
    for p in params:
        p.grad = None
    x = var(data)
    outs = op(x, group)
    backward(_feed(outs, upstreams))
    return [o.data for o in outs], x.grad, [p.grad for p in params]


@pytest.mark.parametrize("learners", [1, 3, 15])
@pytest.mark.parametrize("case", ["conv_shared", "conv_stack", "linear", "attention"])
def test_grouped_op_is_bitwise_per_learner(case, learners):
    # each learner's slice of the outputs and each of its gradients has the
    # raw bits of that learner run alone, whatever the number of learners;
    # a shared input sums the learners' gradients in learner order
    rng = np.random.default_rng(40 + learners)
    layers, data, shared, grouped, alone = _grouped_case(case, learners + 1, rng)
    # the same learners and one more, drawn alike, in a group of their own
    extra = _grouped_case(case, learners + 1, np.random.default_rng(40 + learners))[0]
    layers = layers[:learners]
    group, extra_group = stack_learners(layers), stack_learners(extra)
    stack_data = data if shared else data[:learners]
    outs = grouped(Tensor(stack_data), group)
    upstreams = [rng.normal(size=(learners + 1,) + o.data.shape[1:]) for o in outs]
    got = _grouped_run(grouped, group, layers, stack_data, [u[:learners] for u in upstreams])
    more = _grouped_run(grouped, extra_group, extra, data, upstreams)

    # the oracle runs each learner's own layer, whose tensors are rows of the group's blocks
    inputs = [var(data)] * learners if shared else [var(data[i]) for i in range(learners)]
    per_learner = [alone(x, l) for x, l in zip(inputs, layers)]
    for p in (p for l in layers for p in l.parameters()):
        p.grad = None
    backward(_feed([o for outs in per_learner for o in outs],
                   [u[i] for i in range(learners) for u in upstreams]))

    for i, outs in enumerate(per_learner):
        for j, o in enumerate(outs):
            assert _bits(got[0][j][i]) == _bits(o.data)
            assert _bits(more[0][j][i]) == _bits(o.data)
        if not shared:
            assert _bits(got[1][i]) == _bits(inputs[i].grad)
            assert _bits(more[1][i]) == _bits(inputs[i].grad)
    if shared:
        assert _bits(got[1]) == _bits(inputs[0].grad)
    oracle = [p.grad for l in layers for p in l.parameters()]
    for a, b, c in zip(got[2], more[2], oracle):
        assert _bits(a) == _bits(c) and _bits(b) == _bits(c)
    if learners == 1:  # one layer, not a group: the same function without the learner axis
        single = _grouped_run(grouped, layers[0], layers, data if shared else data[0],
                              [u[0] for u in upstreams])
        for j, o in enumerate(per_learner[0]):
            assert _bits(single[0][j]) == _bits(o.data)
        assert _bits(single[1]) == _bits(inputs[0].grad)
        for a, c in zip(single[2], oracle):
            assert _bits(a) == _bits(c)


def test_grouped_ops_reject_mismatched_learners():
    rng = np.random.default_rng(5)
    convs = [ConvLayer(2, 3, 3, rng=rng), ConvLayer(2, 3, 3, padding=1, rng=rng)]
    with pytest.raises(ShapeMismatch):
        stack_learners(convs)  # one padding differs
    with pytest.raises(ShapeMismatch):  # 3 maps, 2 learners
        conv2d(Tensor(np.zeros((3, 2, 2, 5, 5))),
               stack_learners([ConvLayer(2, 3, 3, rng=rng) for _ in range(2)]))
    with pytest.raises(ShapeMismatch):
        stack_learners([DenseLayer(4, 2, rng=rng), DenseLayer(4, 3, rng=rng)])
    with pytest.raises(ShapeMismatch):  # a group takes a stack of maps, not one map
        attention_apply(Tensor(np.zeros((2, 4, 4, 4))),
                        stack_learners([AttentionBlock(4, rng=rng) for _ in range(2)]))
    # a refused learner leaves the group and itself as they were
    attns = [AttentionBlock(4, spatial_kernel=k, rng=rng) for k in (3, 3, 5)]
    group = stack_learners(attns[:2])
    kept = [p.data for p in attns[2].parameters()]
    with pytest.raises(ShapeMismatch):
        add_learner(group, attns[2])
    assert [p.data.shape[0] for p in group.parameters()] == [2] * 6
    assert all(a is b for a, b in zip(kept, (p.data for p in attns[2].parameters())))


def _masked_sigmoid(x):
    """The two-branch masked form `sigmoid` replaced."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _gathered_max(x, axes, keepdims):
    """The argmax gather `reduce_max` replaced: the entry at the first argmax."""
    keep = tuple(i for i in range(x.ndim) if i not in axes)
    xt = x.transpose(keep + axes)
    flat = xt.reshape(int(np.prod(xt.shape[:len(keep)])), -1)
    vals = flat[np.arange(len(flat)), np.argmax(flat, axis=1)]
    shape = tuple(1 if i in axes else x.shape[i] for i in range(x.ndim)) if keepdims \
        else xt.shape[:len(keep)]
    return vals.reshape(shape)


def test_sigmoid_and_reduce_max_keep_the_bits_of_the_masked_forms():
    rng = np.random.default_rng(14)
    # an attended map: relu output times a sigmoid gate, so >= +0.0, with
    # whole zero windows and repeated maxima, in the conv's channels-last layout
    fmap = np.maximum(rng.normal(size=(3, 4, 5, 5, 8)), 0.0) * rng.uniform(size=(3, 4, 5, 5, 1))
    fmap[0, 1] = 0.0
    fmap[1, 2, 1:4, 1:4] = fmap[1, 2].max()
    fmap[2, :, :, :, 3] = 0.5
    fmap = fmap.transpose(0, 1, 4, 2, 3)
    for axes, keepdims in (((3, 4), False), ((2,), True), ((0, 1, 2, 3, 4), False)):
        got = reduce_max(Tensor(fmap), axis=axes, keepdims=keepdims).data
        want = _gathered_max(fmap, axes, keepdims)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # the subgradient still goes to the first maximum only
    x = var(fmap)
    backward(tsum(reduce_max(x, axis=(3, 4))))
    first = np.argmax(fmap.reshape(3, 4, 8, 25), axis=3)
    assert (x.grad.reshape(3, 4, 8, 25).sum(axis=3) == 1.0).all()
    assert (np.take_along_axis(x.grad.reshape(3, 4, 8, 25), first[..., None], 3) == 1.0).all()

    special = [-0.0, 0.0, 800.0, -800.0, 745.2, -745.2, 1e-300, -1e-300, np.inf, -np.inf,
               np.nan, -np.nan]
    logits = np.concatenate([special, 10.0 * rng.normal(size=3988)]).reshape(4, 1000)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _masked_sigmoid(logits)
        got = sigmoid(Tensor(logits)).data
    assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()


# --- the two window orders -------------------------------------------------

def _model_convs(monkeypatch):
    """(input data, layer) of every conv2d call that one no-grad forward of
    each family makes: the ensemble at 32 px with 3 branches and at 8 px
    with 15, and the dual model at 32 px."""
    seen = []
    real = nn.conv2d

    def spy(x, layer):
        seen.append((x.data.copy(), layer))
        return real(x, layer)

    monkeypatch.setattr(nn, "conv2d", spy)
    monkeypatch.setattr(models, "conv2d", spy)
    rng = np.random.default_rng(23)
    with no_grad():
        models.build_ensemble(8, branch_max=3, seed=1, input_size=32, initial_branches=3) \
            .stacked_forward(Tensor(rng.uniform(size=(3, 1, 32, 32))))
        models.build_ensemble(3, branch_max=15, seed=1, input_size=8, initial_branches=15) \
            .stacked_forward(Tensor(rng.uniform(size=(3, 1, 8, 8))))
        models.build_dual_branch(8, seed=1, input_size=32) \
            .forward(Tensor(rng.uniform(size=(3, 1, 32, 32))))
    monkeypatch.undo()
    return seen


def _training_order_conv(x, layer):
    """Each learner's conv as im2col rows in (c, ki, kj) order and one
    matmul: the order every training step was pinned with."""
    k, s, p = layer.kernel, layer.stride, layer.padding
    w = layer.weights.data
    grouped = w.ndim == 5
    ws, bs = (w, layer.bias.data) if grouped else (w[None], layer.bias.data[None])
    xs = x if x.ndim == 5 else np.broadcast_to(x, (len(ws),) + x.shape)
    outs = []
    for xl, wl, bl in zip(xs, ws, bs):
        n, c, h, wd = xl.shape
        oh, ow = layer.out_size(h, wd)
        xp = np.pad(xl, ((0, 0), (0, 0), (p, p), (p, p)))
        windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::s, ::s]
        col = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * k * k)
        out = (col @ wl.reshape(len(wl), -1).T).reshape(n, oh, ow, len(wl)) + bl
        outs.append(out.transpose(0, 3, 1, 2))
    return np.stack(outs) if grouped else outs[0]


def test_inference_conv_agrees_with_the_recorded_conv(monkeypatch):
    # inference reads channels-last windows in (ki, kj, c) order: the same
    # sums in another order, so equal up to rounding
    seen = _model_convs(monkeypatch)
    kinds = {"shared input": any(x.ndim == 4 and l.weights.data.ndim == 5 for x, l in seen),
             "grouped stack": any(x.ndim == 5 for x, _ in seen),
             "o = 1": any(l.out_channels == 1 for _, l in seen),
             "stride 2": any(l.stride == 2 for _, l in seen),
             "C = 1": any(l.in_channels == 1 for _, l in seen)}
    assert all(kinds.values()), kinds
    for x, layer in seen:
        recorded = conv2d(Tensor(x), layer)
        assert recorded._backward is not None
        with no_grad():
            inferred = conv2d(Tensor(x), layer)
        assert inferred.data.shape == recorded.data.shape
        gap = np.abs(inferred.data - recorded.data).max()
        assert gap <= 1e-12 * np.abs(recorded.data).max(), (x.shape, layer.weights.data.shape)


def test_recorded_conv_keeps_the_training_window_order(monkeypatch):
    for x, layer in _model_convs(monkeypatch):
        recorded = conv2d(Tensor(x), layer)
        assert _bits(recorded.data) == _bits(_training_order_conv(x, layer)), \
            (x.shape, layer.weights.data.shape)


class _CountingNumpy:
    """numpy, counting the matmul and zeros calls made through it."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, *args, **kwargs):
        self.calls.append("matmul")
        return np.matmul(*args, **kwargs)

    def zeros(self, *args, **kwargs):
        self.calls.append("zeros")
        return np.zeros(*args, **kwargs)


@pytest.mark.parametrize("learners", [0, 3])  # 0: one layer, not a group
def test_conv_on_an_input_without_grad_makes_no_input_gradient(learners, monkeypatch):
    rng = np.random.default_rng(31)
    layers = [ConvLayer(16, 8, 3, stride=1, padding=1, rng=rng) for _ in range(max(learners, 1))]
    layer = stack_learners(layers) if learners else layers[0]
    data = rng.normal(size=(4, 16, 8, 8))
    upstream = rng.normal(size=conv2d(Tensor(data), layer).data.shape)
    grads, counts = {}, {}
    for needs in (True, False):
        x = Tensor(data, requires_grad=needs)
        out = conv2d(x, layer)
        layer.weights.grad = layer.bias.grad = None
        counting = _CountingNumpy()
        monkeypatch.setattr(nn, "np", counting)
        backward(_feed([out], [upstream]))
        monkeypatch.undo()
        grads[needs] = (x.grad, layer.weights.grad, layer.bias.grad)
        counts[needs] = counting.calls
    assert grads[False][0] is None and grads[True][0] is not None
    assert _bits(grads[False][1]) == _bits(grads[True][1])
    assert _bits(grads[False][2]) == _bits(grads[True][2])
    # the weight gradient's one GEMM, and no padded map to scatter into
    assert counts[False] == ["matmul"]
    assert "zeros" in counts[True] and len(counts[True]) > 2

