"""Network primitives on top of the autodiff tape.

Convolution, affine layers, max reduction, the masked broadcast multiply
used for attention gating, stable softmax cross-entropy, and the
channel/spatial attention block whose maps feed the diversity machinery.
Every primitive takes batched input only: (N,C,H,W) feature maps and
(N,K) logits; any other rank raises ``ShapeMismatch``. Every layer is a
`Module`: one walk over its attributes gives its `parameters()` and
builds its learner groups (`add_learner`).

The learner axis: `conv2d`, `linear` and `attention_apply` also take a
group of L learners' layers of one shape (`stack_learners`), the
ensemble's branches or the dual model's four patch paths, and then work
on (L,N,...) stacks, one grouped op per layer for all learners. A group
keeps each parameter of its L layers as one (L, ...) block, and each
layer's own tensor is a `Row` of it; so an op reads the block as it is,
records one weight and one bias parent at any L, and writes one gradient
block. The elementwise ops and reductions run on such stacks unchanged,
and the cross-entropy sums the learners' mean losses. One layer is the
group of one, without the leading axis. A learner's slice of any result
has the bits it has when that learner runs alone.

Convolution unfolds its input into im2col rows, one per window. A
recorded conv lists each window in (c, ki, kj) order, the order every
training step and pinned digest was made with. With autodiff not
recording, the input is padded channels-last and each window listed in
(ki, kj, c) order (Chellapilla et al., 2006), so the copy runs along C:
faster, with sums that may differ from the recorded ones by rounding.
Training keeps its own order because such rounding, carried through ten
epochs at L = 3, moved criterion 6's seed-by-seed comparison.

All primitives register custom backwards via ``Tensor.from_op`` and are
covered by finite-difference checks in the verification suite.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .autodiff import (Row, ShapeMismatch, Tensor, accumulate, concat, recording, relu, reshape,
                       sigmoid, tmean)


class Module:
    """A layer whose tensors and sub-layers are its attributes: `parameters()`
    lists the tensors in the order the constructor assigned them (the order
    they were drawn in); a switched-off (None) sub-layer holds none."""

    def parameters(self) -> list[Tensor]:
        return [t for _, _, t in _walk(self)]


def _walk(layer) -> list:
    """(owner, attribute name, tensor) of each tensor in ``layer``, in order."""
    out = []
    for name, part in vars(layer).items():
        if isinstance(part, Tensor):
            out.append((layer, name, part))
        elif isinstance(part, Module):
            out += _walk(part)
    return out


class ConvLayer(Module):
    """2-D convolution weights (cross-correlation). Kernel must be odd."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 stride: int = 1, padding: int = 0, *, rng: np.random.Generator):
        if kernel < 1 or kernel % 2 == 0:
            raise ValueError(f"conv kernel must be odd and positive, got {kernel}")
        if stride < 1 or padding < 0:
            raise ValueError(f"invalid stride/padding: {stride}/{padding}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
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


def _layout(layer, lead: int) -> list:
    """Each attribute of ``layer``: a tensor's shape past its first ``lead``
    axes, a sub-layer's layout, anything else (kernel, stride, ...) as is."""
    return [(name, part.data.shape[lead:] if isinstance(part, Tensor)
             else _layout(part, lead) if isinstance(part, Module) else part)
            for name, part in vars(layer).items()]


def _new_group(layer):
    """The group of ``layer`` alone: each of its tensors is copied into a
    (1, ...) block and becomes row 0 of it."""
    group = object.__new__(type(layer))
    for name, part in vars(layer).items():
        if isinstance(part, Tensor):
            block = Tensor(part.data[None].copy(), requires_grad=True)
            setattr(layer, name, Row(block, 0))
            part = block
        elif isinstance(part, Module):
            part = _new_group(part)
        setattr(group, name, part)
    return group


def add_learner(group, layer):
    """Append ``layer`` as the last learner of ``group`` and return the group.

    A group is a layer of ``layer``'s kind whose tensors are blocks: L
    learners' parameters of one shape on a leading (L, ...) axis, which
    the grouped ops read whole; ``None`` starts a new one. Each tensor
    of the layer and of its sub-layers is copied into a new row of its
    block and becomes that `Row`, so the layer keeps working alone. A
    layer whose shapes or settings differ from the group's raises
    ``ShapeMismatch`` and changes nothing.
    """
    if group is None:
        return _new_group(layer)
    if _layout(group, 1) != _layout(layer, 0):
        raise ShapeMismatch("add_learner", _layout(group, 1), _layout(layer, 0))
    for (_, _, block), (owner, name, part) in zip(_walk(group), _walk(layer)):
        block.data = np.concatenate([block.data, part.data[None]])
        block.grad = None
        setattr(owner, name, Row(block, len(block.data) - 1))
    return group


def stack_learners(layers):
    """The group of ``layers`` in order (see `add_learner`)."""
    return functools.reduce(add_learner, layers, None)


def _lead(a: np.ndarray, grouped: bool) -> np.ndarray:
    """A group's block as it is, or one layer's array with a learner axis
    of one (a view)."""
    return a if grouped else a[None]


def _im2col(maps: np.ndarray, k: int, s: int, p: int, channels_last: bool = False) -> np.ndarray:
    """Every k x k window at stride s of the zero-padded (B, C, H, W) maps,
    one row each, row-major over (B, OH, OW); the padded copy is freed on
    return. A row lists its window in (c, ki, kj) order, so the copy runs
    k elements at a time; ``channels_last`` pads into a (B, H+2p, W+2p, C)
    array and lists it in (ki, kj, c) order, so each run is C long.
    A dot product over the second order adds the same terms in another
    order, so its sums may differ in the last bit."""
    b, c, h, w = maps.shape
    # zero border by assignment: np.pad costs more than the copy itself here
    if channels_last:
        xp = np.zeros((b, h + 2 * p, w + 2 * p, c))
        xp[:, p:p + h, p:p + w] = maps.transpose(0, 2, 3, 1)
        windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))[:, ::s, ::s]
        return windows.transpose(0, 1, 2, 4, 5, 3).reshape(-1, k * k * c)
    xp = np.zeros((b, c, h + 2 * p, w + 2 * p))
    xp[:, :, p:p + h, p:p + w] = maps
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::s, ::s]
    return windows.transpose(0, 2, 3, 1, 4, 5).reshape(-1, c * k * k)


def conv2d(x: Tensor, layer: ConvLayer) -> Tensor:
    """Cross-correlation plus bias.

    ``layer`` is one ConvLayer, for (N,C,H,W) input and output, or a
    group of L learners' ConvLayers (`stack_learners`), whose (L,O,C,k,k)
    weight block gives (L,N,O,OH,OW) output from one (N,C,H,W) map they
    all read (one im2col for all) or from the (L,N,C,H,W) stack of their
    own maps. A learner's slice has the bits of that learner alone,
    whatever L is: the batched matmul runs one GEMM per learner, the
    output keeps the channels-last strides the following reductions read,
    and a shared input adds the learners' gradients in learner order.

    A recorded conv reads its windows in (c, ki, kj) order, otherwise
    channels-last in (ki, kj, c) order (see the module docstring). The
    backward computes the input gradient only when ``x`` requires one.
    """
    grouped = layer.weights.data.ndim == 5
    w = _lead(layer.weights.data, grouped)
    count = len(w)
    shared = x.data.ndim == 4
    if not shared and not (grouped and x.data.ndim == 5 and x.data.shape[0] == count):
        raise ShapeMismatch("conv2d", x.data.shape)
    n, ci, h, wd = x.data.shape[-4:]
    if ci != layer.in_channels:
        raise ShapeMismatch("conv2d", x.data.shape, layer.weights.data.shape)
    k, s, p = layer.kernel, layer.stride, layer.padding
    o = layer.out_channels
    oh, ow = layer.out_size(h, wd)
    taped = recording()

    hp, wp = h + 2 * p, wd + 2 * p
    # the learners' maps folded into the batch axis, (1 or L)*n images, and
    # their windows as (1 or L, n*oh*ow, ci*k*k) rows: one dgemm per learner;
    # inference reads them channels-last against (O, k, k, C) weight rows
    col = _im2col(x.data.reshape((-1, ci, h, wd)), k, s, p,
                  channels_last=not taped).reshape(-1, n * oh * ow, ci * k * k)
    w2 = (w if taped else w.transpose(0, 1, 3, 4, 2)).reshape(count, o, ci * k * k)
    out = np.matmul(col, w2.transpose(0, 2, 1)).reshape(count, n, oh, ow, o)
    out += _lead(layer.bias.data, grouped)[:, None, None, None, :]
    out = out.transpose(0, 1, 4, 2, 3)

    def back(g):
        gs = _lead(g, grouped)
        gb = gs.sum(axis=(1, 3, 4))
        accumulate(layer.bias, gb if grouped else gb[0])
        g2 = gs.transpose(0, 1, 3, 4, 2).reshape(count, n * oh * ow, o)
        gw = np.matmul(g2.transpose(0, 2, 1), col).reshape(w.shape)
        accumulate(layer.weights, gw if grouped else gw[0])
        if not x.requires_grad:
            return
        dcol = np.matmul(g2, w2).reshape(count * n, oh, ow, ci, k, k)
        # channels-last, so each window's add runs along C in both arrays
        dxp = np.zeros((count * n, hp, wp, ci))
        for ki in range(k):
            for kj in range(k):
                dxp[:, ki:ki + (oh - 1) * s + 1:s, kj:kj + (ow - 1) * s + 1:s] += \
                    dcol[:, :, :, :, ki, kj]
        if shared:
            parts = dxp.reshape((count, n, hp, wp, ci))
            dxp = parts[0]
            for d in parts[1:]:
                dxp = dxp + d
        dx = dxp.transpose(0, 3, 1, 2)
        accumulate(x, (dx[:, :, p:p + h, p:p + wd] if p else dx).reshape(x.data.shape))

    return Tensor.from_op(out if grouped else out[0], (x, layer.weights, layer.bias), back,
                          "conv2d")


class DenseLayer(Module):
    """Affine map (in_features -> out_features) acting on (N, in) batches."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 gain: str = "relu"):
        scale = np.sqrt((2.0 if gain == "relu" else 1.0) / in_features)
        w = rng.normal(0.0, scale, size=(in_features, out_features))
        self.weights = Tensor(w, requires_grad=True)
        self.bias = Tensor(np.zeros(out_features), requires_grad=True)


def linear(x: Tensor, layer: DenseLayer) -> Tensor:
    """Affine map of (N, in) rows by one DenseLayer, or of the (L, N, in)
    stack by a group of L learners' DenseLayers, one batched matmul; each
    learner's slice has the bits of that learner run alone."""
    grouped = layer.weights.data.ndim == 3
    w = _lead(layer.weights.data, grouped)
    xs = _lead(x.data, grouped)
    if xs.ndim != 3 or xs.shape[0] != len(w) or xs.shape[2] != w.shape[1]:
        raise ShapeMismatch("linear", x.data.shape, layer.weights.data.shape)
    out = np.matmul(xs, w) + _lead(layer.bias.data, grouped)[:, None, :]

    def back(g):
        gs = _lead(g, grouped)
        dx = np.matmul(gs, w.transpose(0, 2, 1))
        gw = np.matmul(xs.transpose(0, 2, 1), gs)
        gb = gs.sum(axis=1)
        accumulate(x, dx if grouped else dx[0])
        accumulate(layer.weights, gw if grouped else gw[0])
        accumulate(layer.bias, gb if grouped else gb[0])

    return Tensor.from_op(out if grouped else out[0], (x, layer.weights, layer.bias), back,
                          "linear")


def reduce_max(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Max over axes; the subgradient routes to the first argmax on ties.

    The values come from ``np.max`` and the argmax is found only in the
    backward, so inference never computes it. The two differ only on a
    tie between +0.0 and -0.0, where the argmax's entry may be -0.0; every
    call site reads relu outputs times sigmoid maps, which are >= +0.0.
    """
    out = np.asarray(np.max(a.data, axis=axis, keepdims=keepdims))

    def back(g):
        nd = a.data.ndim
        axes = range(nd) if axis is None else (axis,) if isinstance(axis, int) else axis
        axes = tuple(sorted(ax % nd for ax in axes))
        perm = tuple(i for i in range(nd) if i not in axes) + axes
        xt = a.data.transpose(perm)
        flat = xt.reshape(g.size, -1)
        z = np.zeros(flat.shape)
        z[np.arange(g.size), np.argmax(flat, axis=1)] = g.reshape(-1)
        accumulate(a, z.reshape(xt.shape).transpose(np.argsort(perm)))

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
    """Mean cross-entropy of (N,K) logits with an (N,) int label array, or
    of each learner's (N,K) slice of an (L,N,K) stack, the L means summed
    left to right; log-sum-exp stabilized, gradient = softmax - one_hot."""
    ld = logits.data
    if ld.ndim not in (2, 3):
        raise ShapeMismatch("softmax_cross_entropy", ld.shape)
    lab = np.asarray(labels, dtype=np.int64)
    ls = ld if ld.ndim == 3 else ld[None]
    n, k = ls.shape[1:]
    if lab.shape != (n,):
        raise ShapeMismatch("softmax_cross_entropy", ld.shape, lab.shape)
    if lab.min() < 0 or lab.max() >= k:
        raise ValueError(f"softmax_cross_entropy: label out of range for {k} classes")

    rows = np.arange(n)
    z = ls - ls.max(axis=2, keepdims=True)
    ez = np.exp(z)
    se = ez.sum(axis=2)
    means = (np.log(se) - z[:, rows, lab]).mean(axis=1)
    out = means[0]
    for m in means[1:]:
        out = out + m

    def back(g):
        p = ez / se[:, :, None]
        p[:, rows, lab] -= 1.0
        p *= float(g) / n
        accumulate(logits, p.reshape(ld.shape))

    return Tensor.from_op(np.asarray(out), (logits,), back, "softmax_cross_entropy")


def global_avg_pool(feature: Tensor) -> Tensor:
    """Per-channel spatial mean: (N,C,H,W) -> (N,C), or (L,N,C,H,W) ->
    (L,N,C) for a learner stack."""
    if feature.data.ndim not in (4, 5):
        raise ShapeMismatch("global_avg_pool", feature.data.shape)
    return tmean(feature, axis=(-2, -1))


@dataclass
class AttentionMaps:
    """Gating maps from one attention block: channel (N,C,1,1) and spatial
    (N,1,H,W), each sigmoid-bounded in (0,1); with a leading (L,) learner
    axis when a list of blocks ran."""
    channel_map: Tensor
    spatial_map: Tensor


ATTENTION_REDUCTION = 4  # channels per hidden unit of the attention MLP


class AttentionBlock(Module):
    """CBAM-style block: shared two-layer MLP (channels -> channels /
    ATTENTION_REDUCTION -> channels) over avg/max channel descriptors, then
    a small conv over stacked avg/max spatial maps."""

    def __init__(self, channels: int, spatial_kernel: int = 7, *, rng: np.random.Generator):
        if channels % ATTENTION_REDUCTION:
            raise ValueError(f"attention: channels {channels} not divisible by {ATTENTION_REDUCTION}")
        self.channels = channels
        self.fc1 = DenseLayer(channels, channels // ATTENTION_REDUCTION, rng, gain="relu")
        self.fc2 = DenseLayer(channels // ATTENTION_REDUCTION, channels, rng, gain="linear")
        self.spatial_conv = ConvLayer(2, 1, spatial_kernel, stride=1,
                                      padding=(spatial_kernel - 1) // 2, rng=rng)


def attention_apply(feature: Tensor, block: AttentionBlock) -> tuple[Tensor, AttentionMaps]:
    """Refine an (N,C,H,W) ``feature`` by channel then spatial gating;
    returns the refined map and both attention maps (the diversity block's
    inputs). A group of L learners' blocks (`stack_learners`) refines the
    (L,N,C,H,W) stack of their maps, each with its own block, in one pass
    of grouped ops."""
    fd = feature.data
    lead = block.fc1.weights.data.shape[:-2]  # (L,) for a group, () for one block
    if fd.ndim != 4 + len(lead) or fd.shape[:len(lead)] != lead or fd.shape[-3] != block.channels:
        raise ShapeMismatch("attention_apply", fd.shape)

    def mlp(d):
        return linear(relu(linear(d, block.fc1)), block.fc2)

    avg_desc = tmean(feature, axis=(-2, -1))
    max_desc = reduce_max(feature, axis=(-2, -1))
    ch_map = reshape(sigmoid(mlp(avg_desc) + mlp(max_desc)), fd.shape[:-2] + (1, 1))
    xc = broadcast_mul(feature, ch_map)

    sp_stack = concat([tmean(xc, axis=-3, keepdims=True),
                       reduce_max(xc, axis=-3, keepdims=True)], axis=-3)
    sp_map = sigmoid(conv2d(sp_stack, block.spatial_conv))
    refined = broadcast_mul(xc, sp_map)
    return refined, AttentionMaps(channel_map=ch_map, spatial_map=sp_map)
