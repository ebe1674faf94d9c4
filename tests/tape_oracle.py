"""Tape ops the tests build reference graphs and scalar roots from.

Training records neither op, so `divreg.autodiff` does not carry them.
Their arithmetic is that of the per-pair similarity graph which
`similarity_matrix_t` replaced, so the gradients of that graph stay a
bit-exact oracle for it.

`scale_backward` breaks one recorded op kind's backward on purpose, so a
test can show that the gradient-check suite catches it.
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


def scale_backward(monkeypatch, kind: str, factor: float = 1.01) -> None:
    """Every `kind` node recorded from here on passes `factor` times its
    upstream gradient to its backward."""
    from_op = Tensor.from_op.__func__

    def scaled_from_op(cls, data, parents, back, op):
        if op != kind:
            return from_op(cls, data, parents, back, op)
        return from_op(cls, data, parents, lambda g: back(g * factor), op)

    monkeypatch.setattr(Tensor, "from_op", classmethod(scaled_from_op))
