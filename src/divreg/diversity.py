"""Determinant diversity of pooled feature maps.

The chain: pool each learner's (N,C,H,W) map across channels (spatial
view) or across space (channel view), average the RBF similarity
``exp(-gamma * ||a - b||^2)`` of every learner pair over the mini-batch,
and score diversity as the determinant of the resulting L×L similarity
matrix. Near 0 when learners are redundant, near 1 when pairwise
dissimilar.

The plain-array functions (`similarity_matrix`, `lu_det`, `det_gradient`,
`measure_diversity`) are the test oracle; training uses the tape route
only: the ensemble's (L,N,...) attention-map stacks, or the dual model's
pooled (4,N,...) patch-path stack, go to `diversity_of_pooled`,
which records one tape op for the whole similarity matrix
(`similarity_matrix_t`) and one for its determinant (`det_t`), making
the chain differentiable down to raw features. The determinant gradient
is the explicit cofactor (adjugate-transpose) matrix, which stays
well-defined at singular matrices — exactly the all-identical-features
starting point. `lu_det` and the L² minors of the cofactor matrix all go
through one stacked LU, `_lu_dets`, with the bits of a row-by-row
elimination of each matrix on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .autodiff import ShapeMismatch, Tensor, accumulate, reshape, tmean
from .nn import reduce_max

Dimension = Literal["spatial", "channel", "branch"]
PoolOp = Literal["mean", "max"]


def auto_gamma(pooled_length: int) -> float:
    return 1.0 / float(pooled_length)


@dataclass
class DiversityScore:
    """det(S) plus which dimension it measures; ``node`` carries the
    autodiff handle when the score came from a differentiable chain."""

    value: float
    dimension: Dimension
    node: Tensor | None = None


# ---------------------------------------------------------------------------
# plain-array route

def _stack_pooled(pooled) -> np.ndarray:
    """Per-learner (N, ...) arrays as one (L, N, P) float array."""
    stacks = [np.asarray(learner, dtype=np.float64) for learner in pooled]
    if not stacks:
        raise ValueError("need at least one learner")
    stacks = [a.reshape(a.shape[0], -1) for a in stacks]
    for arr in stacks:
        if arr.shape != stacks[0].shape:
            raise ShapeMismatch("similarity_matrix", *(a.shape for a in stacks))
    return np.stack(stacks)


def _unit_rows(a: np.ndarray) -> np.ndarray:
    norms = np.sqrt((a * a).sum(axis=1))
    safe = np.where(norms == 0.0, 1.0, norms)
    return a / safe[:, None]


def similarity_matrix(pooled, gamma: float | None = None, normalize: bool = False) -> np.ndarray:
    """(L,L) array of batch-averaged RBF similarities; diagonal forced to
    exactly 1, each unordered pair computed once (exact symmetry)."""
    feats = _stack_pooled(pooled)
    length, n, p = feats.shape
    if gamma is None:
        gamma = auto_gamma(p)
    if normalize:
        feats = np.stack([_unit_rows(f) for f in feats])
    s = np.eye(length)
    for l in range(length):
        for k in range(l + 1, length):
            d2 = ((feats[l] - feats[k]) ** 2).sum(axis=1)
            s[l, k] = s[k, l] = np.exp(-gamma * d2).mean()
    return s


def _lu_dets(stack: np.ndarray) -> np.ndarray:
    """Determinants of a (B, n, n) stack: LU with partial pivoting, one
    column step for the whole stack per pass, 0 where a pivot vanishes.
    Each matrix gets a row-by-row elimination's arithmetic (first largest
    |pivot|, ``f = a[row, col] / a[col, col]``, ``a[row, col:] -= f *
    a[col, col:]``, diagonal product left to right; every row reads only
    the pivot row), so its bits do not depend on the rest of the stack."""
    a = np.array(stack, dtype=np.float64)
    count, n = a.shape[0], a.shape[-1]
    whole = np.arange(count)
    sign = np.ones(count)
    # a vanished pivot turns the rows below it into inf/nan; the pivot row
    # itself is never touched again, so its 0 on the diagonal marks the
    # matrix for the final 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for col in range(n - 1):
            offset = np.argmax(np.abs(a[:, col:, col]), axis=1)
            if offset.any():
                b = whole[offset != 0]
                p = offset[b] + col
                a[b, col], a[b, p] = a[b, p], a[b, col]
                sign[b] = -sign[b]
            f = a[:, col + 1:, col] / a[:, col, col, None]
            a[:, col + 1:, col:] -= f[:, :, None] * a[:, col, None, col:]
        diag = np.diagonal(a, axis1=1, axis2=2)
        det = sign
        for i in range(n):
            det = det * diag[:, i]
    return np.where((diag != 0.0).all(axis=1), det, 0.0)


def lu_det(matrix: np.ndarray) -> float:
    """Determinant by LU with partial pivoting; 0 on a vanishing pivot."""
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeMismatch("lu_det", a.shape)
    return float(_lu_dets(a[None])[0])


def det_gradient(matrix: np.ndarray) -> np.ndarray:
    """d det / d entries: the cofactor matrix (adjugate transposed). All L²
    (L-1)×(L-1) minors are gathered into one stack and factored by one
    `_lu_dets` call; finite even at singular input."""
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeMismatch("det_gradient", a.shape)
    n = a.shape[0]
    m = max(n - 1, 0)
    keep = np.arange(m) + (np.arange(m) >= np.arange(n)[:, None])  # row i: all but i
    minors = a[keep[:, None, :, None], keep[None, :, None, :]].reshape(n * n, m, m)
    signs = (-1.0) ** np.add.outer(np.arange(n), np.arange(n))
    return signs * _lu_dets(minors).reshape(n, n)


# ---------------------------------------------------------------------------
# differentiable route

def _pool(name: str, feature: Tensor, axis, op: PoolOp) -> Tensor:
    if feature.data.ndim not in (4, 5):
        raise ShapeMismatch(name, feature.data.shape)
    reduce = reduce_max if op == "max" else tmean
    return reduce(feature, axis=axis, keepdims=True)


def spatial_pool(feature: Tensor, op: PoolOp = "mean") -> Tensor:
    """Across-channel pooling: (N,C,H,W) -> (N,1,H,W), per learner of a stack."""
    return _pool("spatial_pool", feature, -3, op)


def channel_pool(feature: Tensor, op: PoolOp = "mean") -> Tensor:
    """Across-space pooling: (N,C,H,W) -> (N,C,1,1), per learner of a stack."""
    return _pool("channel_pool", feature, (-2, -1), op)


def unit_normalize(x: Tensor) -> Tensor:
    """Scale each row of (N,P) to unit L2 norm; zero rows pass through."""
    if x.data.ndim != 2:
        raise ShapeMismatch("unit_normalize", x.data.shape)
    norms = np.sqrt((x.data * x.data).sum(axis=1))
    safe = np.where(norms == 0.0, 1.0, norms)
    out = x.data / safe[:, None]

    def back(g):
        dots = (g * x.data).sum(axis=1)
        accumulate(x, g / safe[:, None] - x.data * (dots / safe ** 3)[:, None])

    return Tensor.from_op(out, (x,), back, "unit_normalize")


def similarity_matrix_t(pooled, gamma: float | None = None,
                        normalize: bool = False) -> Tensor:
    """Differentiable (L,L) similarity matrix of L learners' pooled
    features, recorded as one tape op over all learner pairs. ``pooled``
    is the (L,N,...) learner stack or a sequence of L (N,...) tensors.

    The backward sums each pair's gradient into its two learners pair by
    pair in row-major order, the order a per-pair composition of tape
    ops would use, so the gradients match it bit for bit. One learner
    gives the constant 1×1 identity.
    """
    stacked = isinstance(pooled, Tensor)
    sources = [pooled] if stacked else list(pooled)
    if not stacked:
        feats = _stack_pooled([t.data for t in sources])
    elif pooled.data.ndim < 2:
        raise ShapeMismatch("similarity_matrix", pooled.data.shape)
    else:
        feats = pooled.data.reshape(pooled.data.shape[:2] + (-1,))
    length, n, p = feats.shape
    if gamma is None:
        gamma = auto_gamma(p)
    if normalize:
        sources = [unit_normalize(reshape(t, (t.data.size // p, p))) for t in sources]
        feats = np.concatenate([t.data for t in sources]).reshape(length, n, p)
    rows, cols = np.triu_indices(length, 1)
    diff = feats[rows] - feats[cols]
    kern = np.exp(-gamma * (diff ** 2).sum(axis=2))
    data = np.eye(length)
    data[rows, cols] = data[cols, rows] = kern.mean(axis=1)

    def back(g):
        w = (g[rows, cols] + g[cols, rows])[:, None] / n * kern * (-gamma)
        dpair = 2.0 * (w[:, :, None] * diff)
        dfeat = np.zeros_like(feats)
        for d, l, k in zip(dpair, rows, cols):
            dfeat[l] += d
            dfeat[k] -= d
        for t, d in zip(sources, [dfeat] if stacked else dfeat):
            accumulate(t, d.reshape(t.data.shape))

    parents = tuple(sources) if length > 1 else ()
    return Tensor.from_op(data, parents, back, "similarity")


def det_t(similarity: Tensor) -> Tensor:
    """Differentiable determinant: LU forward, cofactor-matrix backward."""
    sd = similarity.data
    if sd.ndim != 2 or sd.shape[0] != sd.shape[1]:
        raise ShapeMismatch("det", sd.shape)
    value = lu_det(sd)

    def back(g):
        accumulate(similarity, float(g) * det_gradient(sd))

    return Tensor.from_op(np.asarray(value), (similarity,), back, "det")


def diversity_of_pooled(pooled, dimension: Dimension,
                        gamma: float | None = None, normalize: bool = False) -> DiversityScore:
    """Diversity of already-pooled learners, the (L,N,...) stack or L
    (N,...) tensors, carrying the autodiff node for loss composition."""
    node = det_t(similarity_matrix_t(pooled, gamma=gamma, normalize=normalize))
    return DiversityScore(value=float(node.data), dimension=dimension, node=node)


def measure_diversity(pooled_arrays, dimension: Dimension, gamma: float | None = None,
                      normalize: bool = False) -> DiversityScore:
    """Diversity from raw arrays, without the tape: the oracle that the
    tape route is checked against."""
    s = similarity_matrix(pooled_arrays, gamma=gamma, normalize=normalize)
    return DiversityScore(value=lu_det(s), dimension=dimension)
