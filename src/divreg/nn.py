"""Network primitives on top of the autodiff tape.

Convolution, affine layers, max reduction, the masked broadcast multiply
used for attention gating, stable softmax cross-entropy, and the
channel/spatial attention block whose maps feed the diversity machinery.
Every primitive takes batched input only: (N,C,H,W) feature maps and
(N,K) logits; any other rank raises ``ShapeMismatch``.

All primitives register custom backwards via ``Tensor.from_op`` and are
covered by finite-difference checks in the verification suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    ShapeMismatch,
    Tensor,
    accumulate,
    concat,
    relu,
    reshape,
    sigmoid,
    tmean,
)


class ConvLayer:
    """2-D convolution weights (cross-correlation). Kernel must be odd."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 stride: int = 1, padding: int = 0, rng: np.random.Generator | None = None):
        if kernel < 1 or kernel % 2 == 0:
            raise ValueError(f"conv kernel must be odd and positive, got {kernel}")
        if stride < 1 or padding < 0:
            raise ValueError(f"invalid stride/padding: {stride}/{padding}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        if rng is None:
            w = np.zeros((out_channels, in_channels, kernel, kernel))
        else:
            fan_in = in_channels * kernel * kernel
            w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(out_channels, in_channels, kernel, kernel))
        self.weights = Tensor(w, requires_grad=True)
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True)

    def out_size(self, h: int, w: int) -> tuple[int, int]:
        oh = (h + 2 * self.padding - self.kernel) // self.stride + 1
        ow = (w + 2 * self.padding - self.kernel) // self.stride + 1
        if oh < 1 or ow < 1:
            raise ValueError(f"conv2d: kernel {self.kernel} stride {self.stride} pad {self.padding} "
                             f"leaves no output for input {h}x{w}")
        return oh, ow

    def parameters(self) -> list[Tensor]:
        return [self.weights, self.bias]


def conv2d(x: Tensor, layer: ConvLayer) -> Tensor:
    """Cross-correlation plus bias for (N,C,H,W) input."""
    if x.data.ndim != 4:
        raise ShapeMismatch("conv2d", x.data.shape)
    n, ci, h, w = x.data.shape
    if ci != layer.in_channels:
        raise ShapeMismatch("conv2d", x.data.shape, layer.weights.data.shape)
    k, s, p = layer.kernel, layer.stride, layer.padding
    oh, ow = layer.out_size(h, w)

    wt, bt = layer.weights, layer.bias
    xp = np.pad(x.data, ((0, 0), (0, 0), (p, p), (p, p)))
    wd = wt.data
    # im2col: window view (n,ci,oh,ow,k,k) -> (n*oh*ow, ci*k*k), one dgemm.
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


class DenseLayer:
    """Affine map (in_features -> out_features) acting on (N, in) batches."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None = None, gain: str = "relu"):
        if rng is None:
            w = np.zeros((in_features, out_features))
        else:
            scale = np.sqrt((2.0 if gain == "relu" else 1.0) / in_features)
            w = rng.normal(0.0, scale, size=(in_features, out_features))
        self.weights = Tensor(w, requires_grad=True)
        self.bias = Tensor(np.zeros(out_features), requires_grad=True)

    def parameters(self) -> list[Tensor]:
        return [self.weights, self.bias]


def linear(x: Tensor, layer: DenseLayer) -> Tensor:
    wt, bt = layer.weights, layer.bias
    if x.data.ndim != 2 or x.data.shape[1] != wt.data.shape[0]:
        raise ShapeMismatch("linear", x.data.shape, wt.data.shape)

    def back(g):
        accumulate(x, g @ wt.data.T)
        accumulate(wt, x.data.T @ g)
        accumulate(bt, g.sum(axis=0))

    return Tensor.from_op(x.data @ wt.data + bt.data[None, :], (x, wt, bt), back, "linear")


def reduce_max(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Max over axes; subgradient routes to the first argmax on ties."""
    nd = a.data.ndim
    if axis is None:
        axes = tuple(range(nd))
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
    axes = tuple(sorted(ax % nd for ax in axes))
    keep = tuple(i for i in range(nd) if i not in axes)
    perm = keep + axes
    xt = a.data.transpose(perm)
    keep_shape = xt.shape[:len(keep)]
    n_keep = int(np.prod(keep_shape)) if keep_shape else 1
    n_red = int(np.prod(xt.shape[len(keep):])) if len(axes) else 1
    flat = xt.reshape(n_keep, n_red)
    idx = np.argmax(flat, axis=1)
    vals = flat[np.arange(n_keep), idx]
    if keepdims:
        out_shape = tuple(1 if i in axes else a.data.shape[i] for i in range(nd))
    else:
        out_shape = keep_shape
    out = vals.reshape(out_shape)

    def back(g):
        z = np.zeros((n_keep, n_red))
        z[np.arange(n_keep), idx] = g.reshape(n_keep)
        zt = z.reshape(xt.shape)
        accumulate(a, zt.transpose(np.argsort(perm)))

    return Tensor.from_op(out, (a,), back, "reduce_max")


def broadcast_mul(x: Tensor, m: Tensor) -> Tensor:
    """Elementwise multiply where ``m``'s dims are each 1 or equal to ``x``'s.

    The controlled escape hatch from the core's scalar-only broadcasting,
    used for attention gating ((N,C,H,W) times (N,C,1,1) or (N,1,H,W)).
    """
    if x.data.ndim != m.data.ndim or any(
            ms not in (1, xs) for xs, ms in zip(x.data.shape, m.data.shape)):
        raise ShapeMismatch("broadcast_mul", x.data.shape, m.data.shape)
    sum_axes = tuple(i for i, (xs, ms) in enumerate(zip(x.data.shape, m.data.shape))
                     if ms == 1 and xs != 1)

    def back(g):
        accumulate(x, g * m.data)
        gm = g * x.data
        if sum_axes:
            gm = gm.sum(axis=sum_axes, keepdims=True)
        accumulate(m, gm)

    return Tensor.from_op(x.data * m.data, (x, m), back, "broadcast_mul")


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy of (N,K) logits with an (N,) int label array;
    log-sum-exp stabilized, gradient = softmax - one_hot."""
    ld = logits.data
    if ld.ndim != 2:
        raise ShapeMismatch("softmax_cross_entropy", ld.shape)
    lab = np.asarray(labels, dtype=np.int64)
    n, k = ld.shape
    if lab.shape != (n,):
        raise ShapeMismatch("softmax_cross_entropy", ld.shape, lab.shape)
    if lab.min() < 0 or lab.max() >= k:
        raise ValueError(f"softmax_cross_entropy: label out of range for {k} classes")

    z = ld - ld.max(axis=1, keepdims=True)
    ez = np.exp(z)
    se = ez.sum(axis=1)
    losses = np.log(se) - z[np.arange(n), lab]
    out = np.asarray(losses.mean())

    def back(g):
        p = ez / se[:, None]
        p[np.arange(n), lab] -= 1.0
        p *= float(g) / n
        accumulate(logits, p)

    return Tensor.from_op(out, (logits,), back, "softmax_cross_entropy")


def global_avg_pool(feature: Tensor) -> Tensor:
    """Per-channel spatial mean: (N,C,H,W) -> (N,C)."""
    if feature.data.ndim != 4:
        raise ShapeMismatch("global_avg_pool", feature.data.shape)
    return tmean(feature, axis=(2, 3))


@dataclass
class AttentionMaps:
    """Gating maps from one attention block: channel (N,C,1,1) and spatial
    (N,1,H,W), each sigmoid-bounded in (0,1)."""
    channel_map: Tensor
    spatial_map: Tensor


class AttentionBlock:
    """CBAM-style block: shared two-layer MLP over avg/max channel
    descriptors, then a small conv over stacked avg/max spatial maps."""

    def __init__(self, channels: int, reduction: int = 4, spatial_kernel: int = 7,
                 rng: np.random.Generator | None = None):
        if channels % reduction != 0:
            raise ValueError(f"attention: channels {channels} not divisible by reduction {reduction}")
        self.channels = channels
        self.reduction = reduction
        self.fc1 = DenseLayer(channels, channels // reduction, rng, gain="relu")
        self.fc2 = DenseLayer(channels // reduction, channels, rng, gain="linear")
        self.spatial_conv = ConvLayer(2, 1, spatial_kernel, stride=1,
                                      padding=(spatial_kernel - 1) // 2, rng=rng)

    def parameters(self) -> list[Tensor]:
        return self.fc1.parameters() + self.fc2.parameters() + self.spatial_conv.parameters()


def attention_apply(feature: Tensor, block: AttentionBlock) -> tuple[Tensor, AttentionMaps]:
    """Refine an (N,C,H,W) ``feature`` by channel then spatial gating;
    returns the refined map and both attention maps (the diversity block's
    inputs)."""
    if feature.data.ndim != 4 or feature.data.shape[1] != block.channels:
        raise ShapeMismatch("attention_apply", feature.data.shape)
    n, c = feature.data.shape[:2]

    def mlp(d):
        return linear(relu(linear(d, block.fc1)), block.fc2)

    avg_desc = tmean(feature, axis=(2, 3))
    max_desc = reduce_max(feature, axis=(2, 3))
    ch_map = reshape(sigmoid(mlp(avg_desc) + mlp(max_desc)), (n, c, 1, 1))
    xc = broadcast_mul(feature, ch_map)

    sp_stack = concat([tmean(xc, axis=1, keepdims=True),
                       reduce_max(xc, axis=1, keepdims=True)], axis=1)
    sp_map = sigmoid(conv2d(sp_stack, block.spatial_conv))
    refined = broadcast_mul(xc, sp_map)
    return refined, AttentionMaps(channel_map=ch_map, spatial_map=sp_map)
