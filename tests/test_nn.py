"""Network primitives against independent oracles."""

import numpy as np
import pytest

from divreg.autodiff import ShapeMismatch, Tensor, backward
from divreg.nn import (AttentionBlock, ConvLayer, DenseLayer, attention_apply,
                       broadcast_mul, conv2d, global_avg_pool, linear,
                       reduce_max, softmax_cross_entropy)
from tape_oracle import tsum


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
    with pytest.raises(ValueError):
        ConvLayer(1, 1, 2)
    with pytest.raises(ValueError):
        ConvLayer(1, 1, 0)
    with pytest.raises(ValueError):
        ConvLayer(1, 1, 3, stride=0)
    with pytest.raises(ValueError):
        ConvLayer(1, 1, 3, padding=-1)
    with pytest.raises(ValueError):
        ConvLayer(1, 1, 5).out_size(3, 3)


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
    layer = ConvLayer(2, 2, 1)
    layer.weights.data = np.eye(2).reshape(2, 2, 1, 1)
    x = np.random.default_rng(4).normal(size=(1, 2, 4, 4))
    np.testing.assert_array_equal(conv2d(Tensor(x), layer).data, x)


def test_conv2d_rejects_wrong_channels():
    layer = ConvLayer(3, 4, 3)
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
    layer = DenseLayer(2, 2)
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
        AttentionBlock(6, reduction=4)
    block = AttentionBlock(8, reduction=4, spatial_kernel=3, rng=np.random.default_rng(0))
    assert len(block.parameters()) == 6
    assert block.fc1.weights.data.shape == (8, 2)
    assert block.fc2.weights.data.shape == (2, 8)
    assert block.spatial_conv.weights.data.shape == (1, 2, 3, 3)


def test_attention_apply_shapes_and_ranges():
    rng = np.random.default_rng(1)
    block = AttentionBlock(4, reduction=4, spatial_kernel=3, rng=rng)
    x = rng.normal(size=(2, 4, 6, 6))
    refined, maps = attention_apply(Tensor(x), block)
    assert refined.data.shape == x.shape
    assert maps.channel_map.data.shape == (2, 4, 1, 1)
    assert maps.spatial_map.data.shape == (2, 1, 6, 6)
    for m in (maps.channel_map.data, maps.spatial_map.data):
        assert m.min() > 0.0 and m.max() < 1.0


def test_attention_apply_rejects_channel_mismatch():
    block = AttentionBlock(4, reduction=2, spatial_kernel=3)
    with pytest.raises(ShapeMismatch):
        attention_apply(Tensor(np.zeros((2, 3, 5, 5))), block)
    with pytest.raises(ShapeMismatch):  # batched input only
        attention_apply(Tensor(np.zeros((4, 5, 5))), block)


def test_attention_gating_is_multiplicative():
    # zero input stays zero through both gates
    block = AttentionBlock(4, reduction=2, spatial_kernel=3,
                           rng=np.random.default_rng(5))
    refined, _ = attention_apply(Tensor(np.zeros((1, 4, 4, 4))), block)
    np.testing.assert_array_equal(refined.data, np.zeros((1, 4, 4, 4)))
