"""Tape ops the tests build reference graphs and scalar roots from.

Training records neither `exp` nor `tsum`, so `divreg.autodiff` does not
carry them. Their arithmetic is that of the per-pair similarity graph
which `similarity_matrix_t` replaced, so the gradients of that graph stay
a bit-exact oracle for it.

`learner_conv2d`, `learner_linear` and `learner_attention` run one
learner's layer on its own, as the model did before its branches shared
one learner axis: the bit-exact oracle for the grouped layer ops.

`scale_backward` breaks one recorded op kind's backward on purpose, so a
test can show that the gradient-check suite catches it.
"""

import numpy as np

from divreg.autodiff import (Tensor, _expand_reduced, accumulate, concat, relu, reshape,
                             sigmoid, tmean)
from divreg.nn import AttentionMaps, broadcast_mul, reduce_max


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def back(g):
        accumulate(a, g * out_data)

    return Tensor.from_op(out_data, (a,), back, "exp")


def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    def back(g):
        accumulate(a, _expand_reduced(g, a.data.shape, axis, keepdims))

    return Tensor.from_op(np.sum(a.data, axis=axis, keepdims=keepdims), (a,), back, "sum")


def learner_conv2d(x: Tensor, layer) -> Tensor:
    """One ConvLayer on (N,C,H,W) input: im2col and one dgemm."""
    n, ci, h, w = x.data.shape
    k, s, p = layer.kernel, layer.stride, layer.padding
    oh, ow = layer.out_size(h, w)
    wt, bt = layer.weights, layer.bias
    xp = np.pad(x.data, ((0, 0), (0, 0), (p, p), (p, p)))
    wd = wt.data
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    windows = windows[:, :, ::s, ::s]
    col = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, ci * k * k)
    w2 = wd.reshape(layer.out_channels, ci * k * k)
    out2 = col @ w2.T
    out = out2.reshape(n, oh, ow, layer.out_channels).transpose(0, 3, 1, 2) \
        + bt.data[None, :, None, None]

    def back(g):
        accumulate(bt, g.sum(axis=(0, 2, 3)))
        g2 = g.transpose(0, 2, 3, 1).reshape(n * oh * ow, layer.out_channels)
        accumulate(wt, (g2.T @ col).reshape(wd.shape))
        dcol = (g2 @ w2).reshape(n, oh, ow, ci, k, k)
        dxp = np.zeros_like(xp)
        for ki in range(k):
            for kj in range(k):
                dxp[:, :, ki:ki + (oh - 1) * s + 1:s, kj:kj + (ow - 1) * s + 1:s] += \
                    dcol[:, :, :, :, ki, kj].transpose(0, 3, 1, 2)
        accumulate(x, dxp[:, :, p:p + h, p:p + w] if p else dxp)

    return Tensor.from_op(out, (x, wt, bt), back, "conv2d")


def learner_linear(x: Tensor, layer) -> Tensor:
    """One DenseLayer on (N, in) rows."""
    wt, bt = layer.weights, layer.bias

    def back(g):
        accumulate(x, g @ wt.data.T)
        accumulate(wt, x.data.T @ g)
        accumulate(bt, g.sum(axis=0))

    return Tensor.from_op(x.data @ wt.data + bt.data[None, :], (x, wt, bt), back, "linear")


def learner_attention(feature: Tensor, block):
    """One AttentionBlock on an (N,C,H,W) map, from the ops above."""
    n, c = feature.data.shape[:2]

    def mlp(d):
        return learner_linear(relu(learner_linear(d, block.fc1)), block.fc2)

    avg_desc = tmean(feature, axis=(2, 3))
    max_desc = reduce_max(feature, axis=(2, 3))
    ch_map = reshape(sigmoid(mlp(avg_desc) + mlp(max_desc)), (n, c, 1, 1))
    xc = broadcast_mul(feature, ch_map)
    sp_stack = concat([tmean(xc, axis=1, keepdims=True),
                       reduce_max(xc, axis=1, keepdims=True)], axis=1)
    sp_map = sigmoid(learner_conv2d(sp_stack, block.spatial_conv))
    return broadcast_mul(xc, sp_map), AttentionMaps(channel_map=ch_map, spatial_map=sp_map)


def scale_backward(monkeypatch, kind: str, factor: float = 1.01) -> None:
    """Every `kind` node recorded from here on passes `factor` times its
    upstream gradient to its backward."""
    from_op = Tensor.from_op.__func__

    def scaled_from_op(cls, data, parents, back, op):
        if op != kind:
            return from_op(cls, data, parents, back, op)
        return from_op(cls, data, parents, lambda g: back(g * factor), op)

    monkeypatch.setattr(Tensor, "from_op", classmethod(scaled_from_op))
