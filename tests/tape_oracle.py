"""Tape ops the tests build reference graphs and scalar roots from.

Training records neither op, so `divreg.autodiff` does not carry them.
Their arithmetic is that of the per-pair similarity graph which
`similarity_matrix_t` replaced, so the gradients of that graph stay a
bit-exact oracle for it.
"""

import numpy as np

from divreg.autodiff import Tensor, _expand_reduced, accumulate


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def back(g):
        accumulate(a, g * out_data)

    return Tensor.from_op(out_data, (a,), back, "exp")


def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    def back(g):
        accumulate(a, _expand_reduced(g, a.data.shape, axis, keepdims))

    return Tensor.from_op(np.sum(a.data, axis=axis, keepdims=keepdims), (a,), back, "sum")
