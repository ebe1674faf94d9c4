"""Tape mechanics and primitive op gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from divreg.autodiff import (ShapeMismatch, Tensor, accumulate, add, backward,
                             concat, grad_check, mul, narrow, neg, no_grad, relu, reshape,
                             sigmoid, tmean)
from tape_oracle import exp, tsum


def var(data):
    return Tensor(data, requires_grad=True)


def test_tensor_defaults():
    t = Tensor([1, 2, 3])
    assert t.data.dtype == np.float64
    assert t.requires_grad is False
    assert t.grad is None
    assert t.data.tolist() == [1.0, 2.0, 3.0]


def test_scalar_broadcast_allowed_mismatch_rejected():
    a = var(np.ones((2, 3)))
    assert (a + Tensor(2.0)).data.shape == (2, 3)
    assert (Tensor(3.0) * a).data.shape == (2, 3)
    with pytest.raises(ShapeMismatch):
        add(a, var(np.ones((3, 2))))
    with pytest.raises(ShapeMismatch):
        mul(a, var(np.ones(6)))


def test_add_mul_grads_algebraic():
    a = var([1.0, 2.0, 3.0])
    b = var([4.0, 5.0, 6.0])
    out = tsum(a * b + a)
    backward(out)
    # d/da (a*b + a) = b + 1, d/db = a
    np.testing.assert_array_equal(a.grad, [5.0, 6.0, 7.0])
    np.testing.assert_array_equal(b.grad, [1.0, 2.0, 3.0])


def test_scalar_operand_grad_reduces():
    a = var(np.arange(6.0).reshape(2, 3))
    s = var(2.0)
    backward(tsum(a * s))
    assert s.grad.shape == ()
    assert float(s.grad) == a.data.sum()


def test_reused_node_accumulates():
    x = var(3.0)
    y = x * x
    z = y + y
    backward(z)
    assert float(x.grad) == 4.0 * 3.0


def test_neg_values_and_grad():
    a = var([2.0, 5.0])
    out = tsum(-a)
    backward(out)
    np.testing.assert_array_equal(out.data, -7.0)
    np.testing.assert_array_equal(a.grad, [-1.0, -1.0])
    assert np.array_equal(neg(a).data, [-2.0, -5.0])


def test_exp_relu_sigmoid_values():
    x = np.array([-2.0, 0.0, 1.5])
    np.testing.assert_array_equal(exp(Tensor(x)).data, np.exp(x))
    np.testing.assert_array_equal(relu(Tensor(x)).data, [0.0, 0.0, 1.5])
    s = sigmoid(Tensor(x)).data
    assert s[1] == 0.5
    np.testing.assert_allclose(s, 1.0 / (1.0 + np.exp(-x)), rtol=1e-15)


def test_sigmoid_stable_at_extremes():
    with np.errstate(over="raise"):
        s = sigmoid(Tensor([-800.0, 800.0])).data
    assert s[0] == 0.0  # underflow, not overflow
    assert s[1] == 1.0


def test_relu_subgradient_zero_at_zero():
    x = var([0.0])
    backward(tsum(relu(x)))
    assert x.grad[0] == 0.0


def test_sum_mean_axes_match_numpy():
    d = np.arange(24.0).reshape(2, 3, 4)
    for axis in (None, 0, 1, 2, (0, 2)):
        for keep in (False, True):
            np.testing.assert_array_equal(
                tsum(Tensor(d), axis=axis, keepdims=keep).data,
                d.sum(axis=axis, keepdims=keep))
            np.testing.assert_array_equal(
                tmean(Tensor(d), axis=axis, keepdims=keep).data,
                d.mean(axis=axis, keepdims=keep))


def test_mean_grad_is_inverse_count():
    x = var(np.ones((4, 5)))
    backward(tmean(x))
    np.testing.assert_array_equal(x.grad, np.full((4, 5), 1.0 / 20.0))
    x2 = var(np.ones((4, 5)))
    backward(tsum(tmean(x2, axis=0)))
    np.testing.assert_array_equal(x2.grad, np.full((4, 5), 1.0 / 4.0))


def test_reshape_roundtrip_and_size_check():
    x = var(np.arange(6.0))
    y = reshape(x, (2, 3))
    backward(tsum(y * y))
    np.testing.assert_array_equal(x.grad, 2.0 * x.data)
    with pytest.raises(ShapeMismatch):
        reshape(x, (4, 2))


def test_concat_splits_gradient():
    a = var([1.0, 2.0])
    b = var([3.0])
    out = concat([a, b], axis=0)
    weights = Tensor([10.0, 20.0, 30.0])
    backward(tsum(out * weights))
    np.testing.assert_array_equal(a.grad, [10.0, 20.0])
    np.testing.assert_array_equal(b.grad, [30.0])
    with pytest.raises(ShapeMismatch):
        concat([var(np.ones((2, 2))), var(np.ones((2, 3)))], axis=0)


def test_narrow_overlapping_slices_accumulate():
    x = var([1.0, 2.0, 3.0])
    out = tsum(x[0:2]) + tsum(x[1:3])
    backward(out)
    np.testing.assert_array_equal(x.grad, [1.0, 2.0, 1.0])


def test_getitem_int_index():
    x = var([[1.0, 2.0], [3.0, 4.0]])
    y = x[1]
    assert y.data.shape == (2,)
    backward(tsum(y))
    np.testing.assert_array_equal(x.grad, [[0.0, 0.0], [1.0, 1.0]])


def test_backward_requires_scalar_grad_root():
    x = var(np.ones(3))
    with pytest.raises(ValueError):
        backward(x * x)
    with pytest.raises(ValueError):
        backward(tsum(Tensor(np.ones(3))))


def test_constants_stay_gradless():
    c = Tensor([1.0, 2.0])
    x = var([3.0, 4.0])
    backward(tsum(c * x))
    assert c.grad is None
    np.testing.assert_array_equal(x.grad, c.data)


def recorded(t):
    return t.requires_grad and t._parents != () and t._backward is not None


def untaped(t):
    return not t.requires_grad and t._parents == () and t._backward is None


def test_no_grad_records_nothing_and_restores_recording():
    x = var([1.0, -2.0])
    with no_grad():
        y = relu(x * x)
        np.testing.assert_array_equal(y.data, [1.0, 4.0])
        assert untaped(y)
        with no_grad():
            assert untaped(x + x)
        assert untaped(x + x)  # the inner block's exit keeps the outer one off
    assert recorded(x + x)
    with pytest.raises(RuntimeError, match="inside"):
        with no_grad():
            raise RuntimeError("inside")
    assert recorded(x + x)


def test_backward_rejects_a_root_built_under_no_grad():
    x = var([1.0, 2.0])
    with no_grad():
        root = tmean(x * x)
    with pytest.raises(ValueError, match="detached"):
        backward(root)
    assert x.grad is None


def test_accumulate_sums_into_grad():
    x = var([1.0])
    accumulate(x, np.array([2.0]))
    accumulate(x, np.array([3.0]))
    np.testing.assert_array_equal(x.grad, [5.0])
    # the first write has the bits and memory order of zeros_like + g:
    # -0.0 becomes +0.0, and a channels-last tensor gets a channels-last grad
    data = np.zeros((2, 4, 3, 3)).transpose(0, 3, 1, 2)
    g = np.random.default_rng(0).normal(size=data.shape)
    g[0, 1] = -0.0
    t = var(data)
    t.data = data  # Tensor() copies in C order; keep the strided layout
    accumulate(t, g)
    expected = np.zeros_like(data)
    expected += g
    assert t.grad.strides == expected.strides == data.strides
    assert t.grad.tobytes() == expected.tobytes()
    assert not np.signbit(t.grad[0, 1]).any()


def test_grad_check_passes_composite():
    x = var(np.array([0.3, -0.7, 1.1]))
    err = grad_check(lambda t: tsum(sigmoid(t * t) + exp(neg(t))), x)
    assert err < 1e-6


def test_grad_check_catches_broken_backward():
    # negative control: a deliberately wrong backward must be flagged
    def bad_square(t):
        def back(g):
            accumulate(t, g * t.data)  # missing the factor 2
        return tsum(Tensor.from_op(t.data ** 2, (t,), back, "bad_square"))

    x = var(np.array([1.0, 2.0]))
    assert grad_check(bad_square, x) > 0.3


def test_grad_check_restores_input():
    x = var(np.array([1.0, 2.0]))
    before = x.data.copy()
    grad_check(lambda t: tsum(t * t), x)
    np.testing.assert_array_equal(x.data, before)


def _finite_arrays(shape):
    return arrays(np.float64, shape, elements=st.floats(-10, 10))


array_pairs = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda s: st.tuples(_finite_arrays(s), _finite_arrays(s)))


@settings(max_examples=50, deadline=None)
@given(array_pairs)
def test_add_mul_match_numpy(pair):
    a, b = pair
    np.testing.assert_array_equal(add(Tensor(a), Tensor(b)).data, a + b)
    np.testing.assert_array_equal(mul(Tensor(a), Tensor(b)).data, a * b)


@settings(max_examples=50, deadline=None)
@given(st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(_finite_arrays))
def test_sum_grad_is_ones(a):
    x = var(a)
    backward(tsum(x))
    np.testing.assert_array_equal(x.grad, np.ones_like(a))


def test_relu_forward_has_the_bits_and_order_of_the_where_form():
    special = [np.nan, -np.nan, -0.0, 0.0, np.inf, -np.inf, 5e-324, -5e-324,
               2.2250738585072014e-308, -1.5, 1.5, np.finfo(np.float64).max]
    flat = np.array(special)
    rng = np.random.default_rng(3)
    channels_last = rng.normal(size=(2, 3, 3, 4))
    channels_last.reshape(-1)[:flat.size] = flat
    for x in (flat, channels_last.transpose(0, 3, 1, 2)):
        expected = np.where(x > 0, x, 0.0)
        t = var(x)
        t.data = x  # Tensor() copies in C order; keep the strided layout
        with no_grad():
            untaped_out = relu(t).data
        for out in (relu(t).data, untaped_out):
            assert out.strides == expected.strides == x.strides
            assert out.tobytes() == expected.tobytes()


def _chain():
    x = var([1.0, -2.0, 3.0])
    w = var([0.5, 0.5, -1.0])
    hidden = relu(x * w)
    scaled = hidden * Tensor(2.0)
    root = tsum(scaled + x)
    return x, w, (hidden, scaled, root)


def test_backward_consumes_interior_nodes_and_leaves_keep_grads():
    x, w, interior = _chain()
    data = [node.data.copy() for node in interior]
    backward(interior[-1])
    for node, before in zip(interior, data):
        assert node.grad is None and node._backward is None and node._parents == ()
        assert node.data.tobytes() == before.tobytes()
    np.testing.assert_array_equal(x.grad, [2.0, 1.0, 1.0])
    np.testing.assert_array_equal(w.grad, [2.0, 0.0, 0.0])


def test_backward_through_a_consumed_graph_raises():
    x, w, (hidden, _, root) = _chain()
    backward(root)
    grads = x.grad.copy(), w.grad.copy()
    with pytest.raises(ValueError, match="'sum'.*consumed"):
        backward(root)
    with pytest.raises(ValueError, match="'relu'.*consumed"):
        backward(tsum(hidden * hidden))
    # a refused backward accumulates nothing
    np.testing.assert_array_equal(x.grad, grads[0])
    np.testing.assert_array_equal(w.grad, grads[1])
