"""Model families built on the tape: a width-growing attention ensemble
and a dual-branch (local patches + global map) network.

Both share a two-conv stride-2 base and are built from one stage: a 3x3,
pad-1 conv to BRANCH_CHANNELS followed, when attention is on, by a
channel-then-spatial attention block whose spatial kernel fits the conv's
output (7, or 3 below 7 px); the blocks' maps are what the diversity
terms compare. Ensemble branches are stage -> stage (stride 2) -> GAP ->
dense and are added on a schedule by the trainer; adding one never
perturbs existing weights. The base and each branch are `nn.Module`s,
whose `parameters()` follow build order, the checkpoint order.
Each branch keeps its own layer objects, but their parameters live in
learner-major blocks: `EnsembleModel.stacked` groups each layer of all L
branches (`nn.add_learner`), each parameter as one (L, ...) block of
which every branch's tensor is a row. The model runs each layer as one
grouped op on those blocks, with (L, N, ...) results, and each branch's
slice has the bits it would have alone, so adding a branch (one new row
per block) leaves the others' outputs bit-identical. The dual-branch
model stacks the base map's four patches on that learner axis, one
grouped op per layer for all four paths (local branch, grouped as
`patch_conv` and `patch_attn`), next to a full-map stack (global
branch), with separate dense heads.

Checkpoints use a small binary format, magic "DVRG": a fixed header
(version, family, flags, branch counts, class count, input size,
parameter count, seed, lambda), a shape table, then flat float64
parameter data, all little-endian. Round trips are bit exact.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import ShapeMismatch, Tensor, concat, relu, reshape
from .config import SIZE_LIMIT
from .data import write_atomic
from .nn import (AttentionBlock, AttentionMaps, ConvLayer, DenseLayer, Module, add_learner,
                 attention_apply, conv2d, global_avg_pool, linear, stack_learners)

CHECKPOINT_MAGIC = b"DVRG"
CHECKPOINT_VERSION = 1
FAMILY_ENSEMBLE = 0
FAMILY_DUAL = 1
_HEADER_FMT = "<4sIIIIIIIIQd"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)

BASE_CHANNELS = (8, 16)
BRANCH_CHANNELS = 32


class CapacityError(RuntimeError):
    """Raised when adding a branch past the configured maximum."""


class CheckpointFormatError(ValueError):
    """Raised for malformed, truncated, or mismatched checkpoint files."""


def softmax_probs(logits) -> np.ndarray:
    """Row-wise softmax of an (N,K) array or Tensor, numerically stable."""
    a = logits.data if isinstance(logits, Tensor) else np.asarray(logits, dtype=np.float64)
    z = a - a.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _spatial_kernel(size: int) -> int:
    # attention's spatial conv wants k=7; small maps fall back to 3
    return 7 if size >= 7 else 3


def _stream(*key: int) -> np.random.Generator:
    """The seeded stream of one part of a model: (seed, 0) the base; (seed,
    1, i) ensemble branch i; (seed, 1) the dual global path, (seed, 2, j)
    its patch path j and (seed, 3) its two heads."""
    return np.random.default_rng(np.random.SeedSequence(list(key)))


def _attended_conv(in_channels: int, in_size: int, stride: int, attention: bool,
                   rng) -> tuple[ConvLayer, AttentionBlock | None]:
    """One stage's conv and, when attention is on, its block; both draw
    from ``rng`` in that order."""
    conv = ConvLayer(in_channels, BRANCH_CHANNELS, 3, stride=stride, padding=1, rng=rng)
    size, _ = conv.out_size(in_size, in_size)
    attn = (AttentionBlock(BRANCH_CHANNELS, spatial_kernel=_spatial_kernel(size), rng=rng)
            if attention else None)
    return conv, attn


class SharedBase(Module):
    """Two stride-2 convs with relu over single-channel images (the only
    kind a `Dataset` holds); quarters the input resolution."""

    def __init__(self, input_size: int, rng):
        c1, c2 = BASE_CHANNELS
        self.conv1 = ConvLayer(1, c1, 3, stride=2, padding=1, rng=rng)
        self.conv2 = ConvLayer(c1, c2, 3, stride=2, padding=1, rng=rng)
        self.out_channels = c2
        s1, _ = self.conv1.out_size(input_size, input_size)
        self.out_size, _ = self.conv2.out_size(s1, s1)

    def forward(self, x: Tensor) -> Tensor:
        h = relu(conv2d(x, self.conv1))
        return relu(conv2d(h, self.conv2))


class EnsembleBranch(Module):
    """One classifier's layers: two attended conv stages, then GAP and a
    dense layer. `EnsembleModel` runs every branch's layers of a stage
    together."""

    def __init__(self, in_channels: int, in_size: int, class_count: int, attention: bool, rng):
        self.conv1, self.attn1 = _attended_conv(in_channels, in_size, 1, attention, rng)
        self.conv2, self.attn2 = _attended_conv(BRANCH_CHANNELS, in_size, 2, attention, rng)
        self.head = DenseLayer(BRANCH_CHANNELS, class_count, rng=rng, gain="linear")


@dataclass
class EnsembleModel:
    base: SharedBase
    branches: list[EnsembleBranch]
    class_count: int
    branch_max: int
    attention_enabled: bool
    seed: int
    input_size: int
    stacked: EnsembleBranch | None = None  # the branches' layers grouped, one row each

    def stacked_forward(self, batch: Tensor) -> tuple[Tensor, list[AttentionMaps]]:
        """All L branches on one learner axis: (L, N, K) logits and, per
        attended layer, the AttentionMaps of (L, N, ...) map stacks. Each
        layer is one grouped op over the branches' parameter blocks; the
        first conv reads the shared base map once for all of them."""
        s = self.stacked
        h = self.base.forward(batch)
        maps = []
        for conv, attn in ((s.conv1, s.attn1), (s.conv2, s.attn2)):
            h = relu(conv2d(h, conv))
            if attn is not None:
                h, m = attention_apply(h, attn)
                maps.append(m)
        return linear(global_avg_pool(h), s.head), maps

    def forward(self, batch: Tensor) -> tuple[list[Tensor], list[list[AttentionMaps]]]:
        """Per branch: its (N, K) logits and its list of AttentionMaps,
        taped slices of `stacked_forward`."""
        logits, maps = self.stacked_forward(batch)
        learners = range(len(self.branches))
        return ([logits[i] for i in learners],
                [[AttentionMaps(m.channel_map[i], m.spatial_map[i]) for m in maps]
                 for i in learners])

    def parameters(self) -> list[Tensor]:
        return [p for part in (self.base, *self.branches) for p in part.parameters()]


def add_branch(model: EnsembleModel) -> EnsembleModel:
    """Append a freshly initialized branch as one new row of each parameter
    block; existing values untouched.

    Branch weights depend only on (model seed, branch index), so growth
    order cannot perturb earlier branches.
    """
    if len(model.branches) >= model.branch_max:
        raise CapacityError(
            f"cannot add branch: capacity {model.branch_max} already reached")
    branch = EnsembleBranch(model.base.out_channels, model.base.out_size, model.class_count,
                            model.attention_enabled, _stream(model.seed, 1, len(model.branches)))
    model.stacked = add_learner(model.stacked, branch)
    model.branches.append(branch)
    return model


def build_ensemble(class_count: int, branch_max: int = 3, attention_enabled: bool = True,
                   seed: int = 0, input_size: int = 32,
                   initial_branches: int = 1) -> EnsembleModel:
    if class_count < 2:
        raise ValueError(f"class_count must be >= 2, got {class_count}")
    if branch_max < 1:
        raise ValueError(f"branch_max must be >= 1, got {branch_max}")
    if not 1 <= initial_branches <= branch_max:
        raise ValueError(f"initial_branches must be in [1, {branch_max}], got {initial_branches}")
    if input_size < 4:
        raise ValueError(f"input_size must be >= 4, got {input_size}")
    model = EnsembleModel(base=SharedBase(input_size, _stream(seed, 0)), branches=[],
                          class_count=class_count, branch_max=branch_max,
                          attention_enabled=attention_enabled, seed=seed, input_size=input_size)
    for _ in range(initial_branches):
        add_branch(model)
    return model


def ensemble_predict(logits: np.ndarray) -> np.ndarray:
    """Majority vote over branch argmaxes of the (L,N,K) logits stack;
    ties broken by the largest summed softmax over the tied classes, then
    by lowest class index."""
    if len(logits) == 0:
        raise ValueError("need at least one branch's logits")
    probs = softmax_probs(logits)  # (L,N,K)
    k = probs.shape[2]
    counts = (probs.argmax(axis=2)[:, :, None] == np.arange(k)).sum(axis=0)  # (N,K)
    tied = counts == counts.max(axis=1, keepdims=True)
    # argmax returns the first maximum, i.e. the lowest class index
    return np.where(tied, probs.sum(axis=0), -np.inf).argmax(axis=1)


# ---------------------------------------------------------------------------
# dual branch

def patchify(feature: Tensor) -> Tensor:
    """Split the trailing H×W plane into four equal quadrants stacked on a
    leading learner axis, (4, ..., H/2, W/2), row-major: top-left,
    top-right, bottom-left, bottom-right."""
    d = feature.data
    if d.ndim < 2:
        raise ShapeMismatch("patchify", d.shape)
    h, w = d.shape[-2], d.shape[-1]
    if h % 2 or w % 2:
        raise ValueError(f"patchify needs even spatial dims, got {h}x{w}")
    h2, w2 = h // 2, w // 2
    quads = [feature[..., :h2, :w2], feature[..., :h2, w2:],
             feature[..., h2:, :w2], feature[..., h2:, w2:]]
    return reshape(concat(quads, axis=0), (4,) + quads[0].data.shape)


def unpatchify(stack: Tensor) -> Tensor:
    """Inverse of patchify: reassemble the (4, ...) quadrant stack into one map."""
    if stack.data.ndim < 3 or stack.data.shape[0] != 4:
        raise ShapeMismatch("unpatchify", stack.data.shape)
    return concat([concat([stack[i], stack[i + 1]], axis=-1) for i in (0, 2)], axis=-2)


@dataclass
class DualForward:
    global_logits: Tensor
    local_logits: Tensor
    patch_stack: Tensor  # (4, N, C, H/2, W/2): the patch paths' maps
    branch_pooled: tuple[Tensor, Tensor]  # (local, global) GAP vectors

    @property
    def patch_features(self) -> list[Tensor]:
        """Each patch path's (N, C, H/2, W/2) map, a taped slice of the stack."""
        return [self.patch_stack[j] for j in range(4)]


class DualBranchModel:
    """Shared base, then a global conv stack on the full map and four
    parallel conv stacks on its quadrants, each optionally attended;
    separate dense heads score the two branch GAP vectors."""

    def __init__(self, class_count: int, attention_enabled: bool, seed: int,
                 input_size: int, lambda_balance: float):
        if class_count < 2:
            raise ValueError(f"class_count must be >= 2, got {class_count}")
        if not 0.0 <= lambda_balance <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {lambda_balance}")
        if input_size < 8:
            raise ValueError(f"input_size must be >= 8, got {input_size}")
        self.class_count = class_count
        self.attention_enabled = attention_enabled
        self.seed = seed
        self.input_size = input_size
        self.lambda_balance = lambda_balance

        self.backbone = SharedBase(input_size, _stream(seed, 0))
        size = self.backbone.out_size
        if size % 2:
            raise ValueError(f"backbone output {size}x{size} cannot be patchified")
        c = self.backbone.out_channels
        self.global_conv, self.global_attn = _attended_conv(c, size, 1, attention_enabled,
                                                            _stream(seed, 1))
        self.local_convs, self.local_attns = map(list, zip(*(
            _attended_conv(c, size // 2, 1, attention_enabled, _stream(seed, 2, j))
            for j in range(4))))
        self.patch_conv = stack_learners(self.local_convs)
        self.patch_attn = stack_learners(self.local_attns) if attention_enabled else None
        h_rng = _stream(seed, 3)
        self.local_head = DenseLayer(BRANCH_CHANNELS, class_count, rng=h_rng, gain="linear")
        self.global_head = DenseLayer(BRANCH_CHANNELS, class_count, rng=h_rng, gain="linear")

    def forward(self, batch: Tensor) -> DualForward:
        shared = self.backbone.forward(batch)
        # local first: inference then holds no global map at the grouped layers' memory peak
        patches = relu(conv2d(patchify(shared), self.patch_conv))
        if self.patch_attn is not None:
            patches, _ = attention_apply(patches, self.patch_attn)
        local_vec = global_avg_pool(unpatchify(patches))

        g = relu(conv2d(shared, self.global_conv))
        if self.global_attn is not None:
            g, _ = attention_apply(g, self.global_attn)
        global_vec = global_avg_pool(g)
        return DualForward(
            global_logits=linear(global_vec, self.global_head),
            local_logits=linear(local_vec, self.local_head),
            patch_stack=patches,
            branch_pooled=(local_vec, global_vec),
        )

    def parameters(self) -> list[Tensor]:
        local = [layer for pair in zip(self.local_convs, self.local_attns) for layer in pair]
        return [p for part in (self.backbone, self.global_conv, self.global_attn, *local,
                               self.local_head, self.global_head)
                if part is not None for p in part.parameters()]


def build_dual_branch(class_count: int, attention_enabled: bool = True, seed: int = 0,
                      input_size: int = 32, lambda_balance: float = 0.6) -> DualBranchModel:
    return DualBranchModel(class_count, attention_enabled, seed, input_size, lambda_balance)


def dual_predict(global_logits, local_logits, lambda_balance: float) -> np.ndarray:
    """Argmax of the lambda-weighted mix of branch softmaxes."""
    mixed = (lambda_balance * softmax_probs(local_logits)
             + (1.0 - lambda_balance) * softmax_probs(global_logits))
    return mixed.argmax(axis=-1)


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(model, path) -> None:
    if isinstance(model, EnsembleModel):
        family, count, cap, lam = FAMILY_ENSEMBLE, len(model.branches), model.branch_max, 0.0
    elif isinstance(model, DualBranchModel):
        family, count, cap, lam = FAMILY_DUAL, 2, 2, model.lambda_balance
    else:
        raise TypeError(f"cannot checkpoint {type(model).__name__}")
    params = model.parameters()
    flags = 1 if model.attention_enabled else 0
    chunks = [struct.pack(_HEADER_FMT, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, family,
                          flags, count, cap, model.class_count, model.input_size,
                          len(params), model.seed, lam)]
    for p in params:
        chunks.append(struct.pack(f"<I{p.data.ndim}I", p.data.ndim, *p.data.shape))
    for p in params:
        chunks.append(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
    write_atomic(path, b"".join(chunks))


def load_checkpoint(path):
    buf = Path(path).read_bytes()
    if len(buf) < _HEADER_SIZE:
        raise CheckpointFormatError(f"truncated checkpoint: {len(buf)} bytes is shorter than the header")
    (magic, version, family, flags, count, cap, class_count, input_size,
     param_count, seed, lam) = struct.unpack_from(_HEADER_FMT, buf, 0)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
    if version != CHECKPOINT_VERSION:
        raise CheckpointFormatError(f"unsupported checkpoint version {version}")
    if family not in (FAMILY_ENSEMBLE, FAMILY_DUAL):
        raise CheckpointFormatError(f"unknown model family tag {family}")
    if not 2 <= class_count <= SIZE_LIMIT:
        raise CheckpointFormatError(f"implausible class count {class_count}")
    if not 4 <= input_size <= SIZE_LIMIT:
        raise CheckpointFormatError(f"implausible input size {input_size}")
    if not 1 <= count <= cap <= SIZE_LIMIT:
        raise CheckpointFormatError(f"implausible branch counts {count}/{cap}")
    attention = bool(flags & 1)

    offset = _HEADER_SIZE
    shapes = []
    for i in range(param_count):
        if offset + 4 > len(buf):
            raise CheckpointFormatError(f"truncated shape table at parameter {i}")
        (ndim,) = struct.unpack_from("<I", buf, offset)
        offset += 4
        if ndim > 8 or offset + 4 * ndim > len(buf):
            raise CheckpointFormatError(f"truncated shape table at parameter {i}")
        shapes.append(struct.unpack_from(f"<{ndim}I", buf, offset))
        offset += 4 * ndim
    expected = offset + 8 * sum(math.prod(shape) for shape in shapes)
    if len(buf) < expected:
        raise CheckpointFormatError(
            f"truncated checkpoint: {len(buf)} bytes, shape table promises {expected}")
    if len(buf) > expected:
        raise CheckpointFormatError(f"{len(buf) - expected} trailing bytes after parameter data")

    # one branch is built until the shape table matches: a small file allocates no large model
    try:
        if family == FAMILY_ENSEMBLE:
            model = build_ensemble(class_count, branch_max=cap, attention_enabled=attention,
                                   seed=seed, input_size=input_size)
        else:
            model = build_dual_branch(class_count, attention_enabled=attention, seed=seed,
                                      input_size=input_size, lambda_balance=lam)
    except ValueError as e:
        raise CheckpointFormatError(f"header describes no valid model: {e}") from e
    wanted = [p.data.shape for p in model.parameters()]
    if family == FAMILY_ENSEMBLE:
        n_base = len(model.base.parameters())
        wanted = wanted[:n_base] + wanted[n_base:] * count
    if param_count != len(wanted):
        raise CheckpointFormatError(
            f"parameter count mismatch: file has {param_count}, model needs {len(wanted)}")
    for i, (want, shape) in enumerate(zip(wanted, shapes)):
        if want != shape:
            raise CheckpointFormatError(
                f"parameter {i} shape mismatch: file says {shape}, model says {want}")
    if family == FAMILY_ENSEMBLE:
        while len(model.branches) < count:
            add_branch(model)
    for p in model.parameters():
        view = p.data  # written in place: assigning a Row's data copies its whole block
        arr = np.frombuffer(buf, dtype="<f8", count=view.size, offset=offset)
        view[...] = arr.reshape(view.shape)
        offset += view.size * 8
    return model
