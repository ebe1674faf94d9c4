"""Dense-tensor reverse-mode autodiff on a define-by-run tape.

A ``Tensor`` wraps a float64 numpy array plus an optional gradient slot.
Every op records the node it creates (op kind, parent links); calling
``backward`` on a scalar root walks the tape in reverse topological order
and accumulates gradients additively into every reachable leaf that
requires them. Backward consumes the graph it walks: once an interior
node (an op result) has passed its gradient on, it keeps only its
``data``, so its gradient, closure and parent links are freed while the
walk goes on, and a second backward through it raises.

The ops here are the ones the training steps record, and `divreg
gradcheck` checks each of them; ``-t`` is ``t * Tensor(-1.0)``, which
negates values and gradients exactly.
A ``Row`` is one learner's parameter held as a row of an (L, ...) block
tensor, so ops over all learners read and write the block whole.
Inference runs inside ``no_grad()``: there every op returns a constant
with no parent links and no backward closure, so nothing that only the
backward pass would read (inputs, im2col matrices, masks) outlives it.
Ops read ``recording()`` to choose a route that only inference may take.
Broadcasting is deliberately restricted to scalar-with-tensor so that
shape mistakes fail loudly instead of silently fanning out.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

_recording = True


@contextmanager
def no_grad():
    """Record nothing inside the block (or decorated function): every op
    result is a constant. An op may take another route here (`nn.conv2d`
    reads its windows channels-last), so inference logits may differ from
    a taped forward's by rounding."""
    global _recording
    outer, _recording = _recording, False
    try:
        yield
    finally:
        _recording = outer


def recording() -> bool:
    """Whether ops record tape nodes now (False inside ``no_grad()``)."""
    return _recording


class ShapeMismatch(ValueError):
    """Raised when an op receives incompatible shapes; names the op."""

    def __init__(self, op: str, *shapes):
        super().__init__(f"{op}: incompatible shapes {', '.join(str(tuple(s)) for s in shapes)}")
        self.op = op
        self.shapes = shapes


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.array(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._op = "leaf"

    @classmethod
    def from_op(cls, data: np.ndarray, parents: Sequence["Tensor"], backward, op: str) -> "Tensor":
        """Register the result of a primitive op on the tape.

        ``backward(g)`` receives the upstream gradient (same shape as
        ``data``) and must accumulate into the parents via ``accumulate``.
        Used by this module's ops and by downstream primitives (conv,
        attention, determinant) alike. Inside ``no_grad()`` the result is a
        constant: no parents, no closure, ``requires_grad`` False.
        """
        out = cls.__new__(cls)
        out.data = data
        out.requires_grad = _recording and any(p.requires_grad for p in parents)
        out.grad = None
        out._parents = tuple(parents) if _recording else ()
        out._backward = backward if out.requires_grad else None
        out._op = op
        return out

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op!r}, requires_grad={self.requires_grad})"

    # arithmetic sugar over two tensors
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul(self, Tensor(-1.0))

    def __getitem__(self, key):
        return narrow(self, key)


class Row(Tensor):
    """One learner's parameter: row ``index`` of ``block``, a tensor whose
    (L, ...) data and gradient hold L learners' parameters of one shape.

    ``data`` and ``grad`` read the block's row, so an in-place write to
    either reaches the block. Assigning ``data`` puts a copy of the block
    with that row replaced in the block's place, so an array read before
    keeps its values, as it does for a plain tensor. Assigning ``grad``
    writes the row (allocating a zero block gradient first); assigning
    None clears the whole block's gradient.
    """
    __slots__ = ("block", "index")

    def __init__(self, block: Tensor, index: int):
        self.block = block
        self.index = index
        self.requires_grad = True
        self._parents = ()
        self._backward = None
        self._op = "leaf"

    @property
    def data(self) -> np.ndarray:
        return self.block.data[self.index]

    @data.setter
    def data(self, value) -> None:
        data = self.block.data.copy()
        data[self.index] = value
        self.block.data = data

    @property
    def grad(self) -> np.ndarray | None:
        g = self.block.grad
        return None if g is None else g[self.index]

    @grad.setter
    def grad(self, value) -> None:
        if value is None:
            self.block.grad = None
            return
        if self.block.grad is None:
            self.block.grad = np.zeros_like(self.block.data)
        self.block.grad[self.index] = value


def accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad``. The first write is one pass with the bits
    and the memory order of ``zeros_like(t.data)`` plus ``g`` (so -0.0
    becomes +0.0)."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.add(g, 0.0, out=np.empty_like(t.data))
    else:
        t.grad += g


def backward(root: Tensor) -> None:
    """Populate ``grad`` for every requires_grad leaf reachable from ``root``.

    ``root`` must be scalar-sized and itself require grad; gradients from
    multiple uses of one tensor accumulate additively. The walk consumes
    the graph: each interior node drops its gradient, closure and parent
    links once its closure has run and keeps its ``data``. Leaves
    (parameters, their `Row`s, inputs) keep their gradients. Reaching a
    node an earlier backward consumed raises ``ValueError``.
    """
    if root.data.size != 1:
        raise ValueError(f"backward: root must be scalar, got shape {root.data.shape}")
    if not root.requires_grad:
        raise ValueError("backward: root is detached (requires_grad=False)")

    # iterative postorder; creation order already topological, but we only
    # visit what is reachable and grad-requiring
    topo: list[Tensor] = []
    visited: set[Tensor] = set()  # by identity: Tensor defines no __eq__
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if node in visited:
            continue
        if not node._parents and node._op != "leaf":
            raise ValueError(f"backward: the {node._op!r} node's graph was consumed "
                             "by an earlier backward")
        visited.add(node)
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and p not in visited:
                stack.append((p, False))

    accumulate(root, np.ones_like(root.data))
    for node in reversed(topo):
        if not node._parents:  # a leaf keeps its gradient
            continue
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        node.grad = node._backward = None
        node._parents = ()


# ---------------------------------------------------------------------------
# primitive ops

def _binary_shapes(op: str, a: Tensor, b: Tensor) -> None:
    if a.data.shape != b.data.shape and a.data.size != 1 and b.data.size != 1:
        raise ShapeMismatch(op, a.data.shape, b.data.shape)


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # shrink a broadcast gradient back onto a size-1 operand
    if g.shape == shape:
        return g
    return np.full(shape, g.sum())


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes("add", a, b)

    def back(g):
        accumulate(a, _reduce_to(g, a.data.shape))
        accumulate(b, _reduce_to(g, b.data.shape))

    return Tensor.from_op(a.data + b.data, (a, b), back, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes("mul", a, b)

    def back(g):
        accumulate(a, _reduce_to(g * b.data, a.data.shape))
        accumulate(b, _reduce_to(g * a.data, b.data.shape))

    return Tensor.from_op(a.data * b.data, (a, b), back, "mul")


def relu(a: Tensor) -> Tensor:
    """max(x, 0) in one pass that keeps the input's memory order; the
    in-place ``+= 0.0`` turns -0.0 into +0.0 (fmax maps NaN to 0.0), the
    bits of ``where(x > 0, x, 0.0)``. The backward builds its own mask."""
    out_data = np.fmax(a.data, 0.0)
    out_data += 0.0

    def back(g):
        accumulate(a, g * (a.data > 0))

    return Tensor.from_op(out_data, (a,), back, "relu")


def sigmoid(a: Tensor) -> Tensor:
    """1 / (1 + e) where x >= 0 and e / (1 + e) elsewhere, e = exp(-|x|)
    taken as exp(min(x, -x)): the bits of the two-branch masked form,
    -0.0 and NaN included, without its masked copies."""
    x = a.data
    e = np.exp(np.minimum(x, -x))
    out_data = np.where(x >= 0, 1.0, e) / (1.0 + e)

    def back(g):
        accumulate(a, g * out_data * (1.0 - out_data))

    return Tensor.from_op(out_data, (a,), back, "sigmoid")


def _expand_reduced(g: np.ndarray, in_shape, axis, keepdims) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g.reshape((1,) * len(in_shape)), in_shape)
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    axes = tuple(ax % len(in_shape) for ax in axes)
    if not keepdims:
        for ax in sorted(axes):
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, in_shape)


def tmean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out_data = np.mean(a.data, axis=axis, keepdims=keepdims)
    count = a.data.size / max(out_data.size, 1)

    def back(g):
        accumulate(a, _expand_reduced(g, a.data.shape, axis, keepdims) / count)

    return Tensor.from_op(out_data, (a,), back, "mean")


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    if int(np.prod(shape)) != a.data.size:
        raise ShapeMismatch("reshape", a.data.shape, shape)

    def back(g):
        accumulate(a, g.reshape(a.data.shape))

    return Tensor.from_op(a.data.reshape(shape), (a,), back, "reshape")


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ValueError("concat: need at least one tensor")
    first = tensors[0].data.shape
    for t in tensors[1:]:
        s = t.data.shape
        if len(s) != len(first) or any(s[i] != first[i] for i in range(len(s)) if i != axis % len(s)):
            raise ShapeMismatch("concat", *[t.data.shape for t in tensors])
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def back(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            accumulate(t, g[tuple(idx)])

    return Tensor.from_op(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), back, "concat")


def narrow(a: Tensor, key) -> Tensor:
    """Basic slicing (ints/slices/tuples); gradient scatters back into place.
    The copy keeps the source's memory order, which fixes reduction order."""
    out_data = a.data[key]

    def back(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[key] += g

    return Tensor.from_op(out_data.copy(order="K"), (a,), back, "slice")


# ---------------------------------------------------------------------------
# finite-difference verification

GRAD_CHECK_EPS = 1e-5  # the central-difference step of `grad_check`


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor) -> float:
    """Max relative error between autodiff and central finite differences
    of step GRAD_CHECK_EPS.

    ``f`` must return a scalar Tensor and be rebuildable (it is re-run for
    every coordinate perturbation of ``x.data``).  Relative error is
    ``|a-b| / max(1e-12, |a|, |b|)`` per coordinate.
    """
    x.grad = None
    out = f(x)
    if out.data.size != 1:
        raise ValueError("grad_check: f must produce a scalar")
    if out.requires_grad:
        backward(out)
    auto = np.zeros_like(x.data) if x.grad is None else x.grad.copy()

    flat = x.data.reshape(-1)
    fd = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + GRAD_CHECK_EPS
        hi = float(f(x).data.reshape(-1)[0])
        flat[i] = orig - GRAD_CHECK_EPS
        lo = float(f(x).data.reshape(-1)[0])
        flat[i] = orig
        fd[i] = (hi - lo) / (2.0 * GRAD_CHECK_EPS)

    a = auto.reshape(-1)
    denom = np.maximum(1e-12, np.maximum(np.abs(a), np.abs(fd)))
    rel = np.abs(a - fd) / denom
    return float(rel.max()) if rel.size else 0.0
