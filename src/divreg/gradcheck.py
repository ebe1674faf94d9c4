"""Named finite-difference verification suite behind `divreg gradcheck`.

Every op the training steps record and the loss of each training step
are checked against central differences: ops at 1e-5 (the layer ops and
the pools both on one input and on a stack of three learners), the two
step losses through tiny end-to-end models at 1e-4, once at the default
config and once with the switches that add ops (every layer tapped, max
pooling, unit-normalized features). Check inputs come from per-check
seeded streams, chosen with margins away from relu/max kinks, so the
report is deterministic.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import Tensor, concat, grad_check, relu, reshape, sigmoid, tmean
from .config import ExperimentConfig
from .diversity import (channel_pool, det_gradient, det_t, similarity_matrix_t, spatial_pool,
                        unit_normalize)
from .models import build_dual_branch, build_ensemble
from .nn import (AttentionBlock, ConvLayer, DenseLayer, attention_apply, broadcast_mul,
                 conv2d, global_avg_pool, linear, reduce_max, softmax_cross_entropy,
                 stack_learners)
from .training import _dual_step, _ensemble_step

OP_TOL = 1e-5
COMPOSITE_TOL = 1e-4
_SUITE_SALT = 0x6A11


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    threshold: float
    passed: bool


def _rng(seed: int):
    return np.random.default_rng(np.random.SeedSequence([_SUITE_SALT, seed]))


def _var(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def _mix(t: Tensor, rng) -> Tensor:
    """Reduce to a scalar with fixed random weights so every output
    position contributes to the checked gradient."""
    r = Tensor(rng.uniform(0.5, 1.5, t.data.shape) * rng.choice([-1.0, 1.0], t.data.shape))
    return tmean(t * r)


def _away_from_zero(rng, shape, low=0.2, high=1.0):
    return rng.uniform(low, high, shape) * rng.choice([-1.0, 1.0], shape)


def _max_over(*errs: float) -> float:
    return float(max(errs))


# --- core tape ops ---------------------------------------------------------

def _check_add(rng):
    a = _var(rng.normal(size=(3, 4)))
    b = _var(rng.normal(size=(3, 4)))
    s = _var(rng.normal())
    return _max_over(
        grad_check(lambda t: _mix(t + b, _rng(101)), a),
        grad_check(lambda t: _mix(a + t, _rng(102)), b),
        grad_check(lambda t: _mix(a + t, _rng(103)), s))


def _check_mul(rng):
    a = _var(rng.normal(size=(3, 4)))
    b = _var(rng.normal(size=(3, 4)))
    s = _var(rng.normal())
    return _max_over(
        grad_check(lambda t: _mix(t * b, _rng(104)), a),
        grad_check(lambda t: _mix(a * t, _rng(105)), b),
        grad_check(lambda t: _mix(a * t, _rng(106)), s))


def _check_relu(rng):
    a = _var(_away_from_zero(rng, (4, 4)))
    return grad_check(lambda t: _mix(relu(t), _rng(109)), a)


def _check_sigmoid(rng):
    a = _var(rng.uniform(-3.0, 3.0, (3, 4)))
    return grad_check(lambda t: _mix(sigmoid(t), _rng(110)), a)


def _check_mean(rng):
    a = _var(rng.normal(size=(3, 4, 2)))
    return _max_over(
        grad_check(lambda t: _mix(tmean(t, axis=0), _rng(113)), a),
        grad_check(lambda t: tmean(t), a),
        grad_check(lambda t: _mix(tmean(t, axis=(1, 2), keepdims=True), _rng(114)), a))


def _check_reshape(rng):
    a = _var(rng.normal(size=(3, 4)))
    return grad_check(lambda t: _mix(reshape(t, (2, 6)), _rng(115)), a)


def _check_concat(rng):
    a = _var(rng.normal(size=(2, 3)))
    b = _var(rng.normal(size=(2, 2)))
    return _max_over(
        grad_check(lambda t: _mix(concat([t, b], axis=1), _rng(116)), a),
        grad_check(lambda t: _mix(concat([a, t], axis=1), _rng(117)), b))


def _check_slice(rng):
    a = _var(rng.normal(size=(4, 6)))
    return _max_over(
        grad_check(lambda t: _mix(t[1:3, ::2], _rng(118)), a),
        grad_check(lambda t: _mix(t[..., 2:], _rng(119)), a))


# --- nn ops ----------------------------------------------------------------

def _check_conv2d(rng):
    x = _var(rng.normal(size=(2, 2, 5, 5)))
    layer = ConvLayer(2, 3, 3, stride=1, padding=1, rng=rng)
    strided = ConvLayer(2, 2, 3, stride=2, padding=0, rng=rng)
    # three learners on one shared map and on a stack of their own maps
    layers = [ConvLayer(2, 3, 3, stride=2, padding=1, rng=rng) for _ in range(3)]
    group = stack_learners(layers)
    stack = _var(rng.normal(size=(3, 2, 2, 5, 5)))
    return _max_over(
        grad_check(lambda t: _mix(conv2d(t, layer), _rng(122)), x),
        grad_check(lambda t: _mix(conv2d(x, layer), _rng(123)), layer.weights),
        grad_check(lambda t: _mix(conv2d(x, layer), _rng(124)), layer.bias),
        grad_check(lambda t: _mix(conv2d(x, strided), _rng(125)), strided.weights),
        grad_check(lambda t: _mix(conv2d(t, group), _rng(150)), x),
        grad_check(lambda t: _mix(conv2d(t, group), _rng(151)), stack),
        grad_check(lambda t: _mix(conv2d(x, group), _rng(152)), layers[1].weights),
        grad_check(lambda t: _mix(conv2d(stack, group), _rng(153)), layers[2].bias))


def _check_linear(rng):
    x = _var(rng.normal(size=(3, 4)))
    layer = DenseLayer(4, 2, rng=rng)
    layers = [DenseLayer(4, 2, rng=rng) for _ in range(3)]
    group = stack_learners(layers)
    stack = _var(rng.normal(size=(3, 3, 4)))
    return _max_over(
        grad_check(lambda t: _mix(linear(t, layer), _rng(126)), x),
        grad_check(lambda t: _mix(linear(x, layer), _rng(127)), layer.weights),
        grad_check(lambda t: _mix(linear(x, layer), _rng(128)), layer.bias),
        grad_check(lambda t: _mix(linear(t, group), _rng(154)), stack),
        grad_check(lambda t: _mix(linear(stack, group), _rng(155)), layers[1].weights),
        grad_check(lambda t: _mix(linear(stack, group), _rng(156)), layers[2].bias))


def _check_reduce_max(rng):
    # distinct multiples of 0.1 keep argmaxes unique with wide margins
    vals = rng.permutation(24).astype(np.float64).reshape(2, 3, 4) * 0.1
    a = _var(vals)
    return _max_over(
        grad_check(lambda t: _mix(reduce_max(t, axis=1), _rng(129)), a),
        grad_check(lambda t: _mix(reduce_max(t, axis=(1, 2), keepdims=True), _rng(130)), a))


def _check_broadcast_mul(rng):
    x = _var(rng.normal(size=(2, 3, 2, 2)))
    m_ch = _var(rng.normal(size=(2, 3, 1, 1)))
    m_sp = _var(rng.normal(size=(2, 1, 2, 2)))
    return _max_over(
        grad_check(lambda t: _mix(broadcast_mul(t, m_ch), _rng(131)), x),
        grad_check(lambda t: _mix(broadcast_mul(x, t), _rng(132)), m_ch),
        grad_check(lambda t: _mix(broadcast_mul(x, t), _rng(133)), m_sp))


def _check_softmax_cross_entropy(rng):
    logits = _var(rng.normal(size=(4, 5)))
    labels = np.array([1, 0, 4, 2])
    return grad_check(lambda t: softmax_cross_entropy(t, labels), logits)


def _check_global_avg_pool(rng):
    x = _var(rng.normal(size=(2, 3, 4, 4)))
    return grad_check(lambda t: _mix(global_avg_pool(t), _rng(134)), x)


def _check_attention(rng):
    x = _var(rng.normal(size=(2, 4, 4, 4)) + 0.5)
    block = AttentionBlock(4, spatial_kernel=3, rng=rng)
    blocks = [AttentionBlock(4, spatial_kernel=3, rng=rng) for _ in range(3)]
    group = stack_learners(blocks)
    stack = _var(rng.normal(size=(3, 2, 4, 4, 4)) + 0.5)

    def scalar(feature, blocks=block):
        refined, maps = attention_apply(feature, blocks)
        return (_mix(refined, _rng(136)) + _mix(maps.channel_map, _rng(137))
                + _mix(maps.spatial_map, _rng(138)))

    return _max_over(
        grad_check(lambda t: scalar(t), x),
        grad_check(lambda t: scalar(x), block.fc1.weights),
        grad_check(lambda t: scalar(x), block.fc2.weights),
        grad_check(lambda t: scalar(x), block.spatial_conv.weights),
        grad_check(lambda t: scalar(x), block.fc2.bias),
        grad_check(lambda t: scalar(t, group), stack),
        grad_check(lambda t: scalar(stack, group), blocks[1].fc1.weights),
        grad_check(lambda t: scalar(stack, group), blocks[2].spatial_conv.weights))


# --- diversity core --------------------------------------------------------

def _pool_error(pool, rng, seeds):
    """`pool` by mean and max (distinct values) on a map, then on 3 learners' maps."""
    x = _var(rng.normal(size=(2, 3, 4, 4)))
    xm = _var(rng.permutation(2 * 3 * 16).astype(np.float64).reshape(2, 3, 4, 4) * 0.1)
    stack = _var(rng.normal(size=(3, 2, 3, 4, 4)))
    stack_m = _var(rng.permutation(3 * 96).astype(np.float64).reshape(3, 2, 3, 4, 4) * 0.1)
    cases = zip((x, xm, stack, stack_m), ("mean", "max") * 2, seeds)
    return _max_over(*(grad_check(lambda t: _mix(pool(t, op=op), _rng(seed)), v)
                       for v, op, seed in cases))


def _check_spatial_pool(rng):
    return _pool_error(spatial_pool, rng, (139, 140, 157, 158))


def _check_channel_pool(rng):
    return _pool_error(channel_pool, rng, (141, 142, 159, 160))


def _check_unit_normalize(rng):
    x = _var(rng.normal(size=(3, 5)) + 0.8)
    return grad_check(lambda t: _mix(unit_normalize(t), _rng(143)), x)


def _check_similarity(rng):
    a = _var(rng.normal(size=(2, 3)))
    b = _var(rng.normal(size=(2, 3)))
    c = _var(rng.normal(size=(2, 3)))
    return _max_over(
        grad_check(lambda t: _mix(similarity_matrix_t([t, b, c], gamma=0.7), _rng(144)), a),
        grad_check(lambda t: _mix(similarity_matrix_t([a, t, c], gamma=0.7), _rng(145)), b),
        grad_check(lambda t: _mix(
            similarity_matrix_t([a, b, t], gamma=0.7, normalize=True), _rng(146)), c))


def _check_det(rng):
    x = _var(rng.normal(size=9))
    base = Tensor(np.eye(3) * 2.0)
    return grad_check(lambda t: det_t(reshape(t, (3, 3)) + base), x)


def _check_diversity_grad(rng):
    """Cofactor-matrix gradient of lu_det vs finite differences of the
    independent numpy determinant."""
    worst = 0.0
    for trial in range(4):
        n = 3 + trial % 3
        a = rng.normal(size=(n, n)) + np.eye(n) * 1.5
        computed = det_gradient(a)
        fd = np.zeros_like(a)
        eps = 1e-6
        for i in range(n):
            for j in range(n):
                old = a[i, j]
                a[i, j] = old + eps
                fp = np.linalg.det(a)
                a[i, j] = old - eps
                fm = np.linalg.det(a)
                a[i, j] = old
                fd[i, j] = (fp - fm) / (2 * eps)
        denom = np.maximum(1e-6, np.maximum(np.abs(computed), np.abs(fd)))
        worst = max(worst, float((np.abs(computed - fd) / denom).max()))
    return worst


# --- composite losses ------------------------------------------------------

def _step_check(family: str, model_seed: int, labels, pick, **switches):
    """The check of one training step's loss over the ``pick(model)``
    tensors of a tiny 8 px, 3-class model built when the check runs;
    ``switches`` are config fields (``branch_max`` also sets the ensemble's
    branch count)."""
    cfg = ExperimentConfig(family, **switches)

    def check(rng):
        ensemble = family == "ensemble"
        model = (build_ensemble(3, branch_max=cfg.branch_max, seed=model_seed, input_size=8,
                                initial_branches=cfg.branch_max) if ensemble
                 else build_dual_branch(3, seed=model_seed, input_size=8))
        step = _ensemble_step if ensemble else _dual_step
        x = np.clip(rng.normal(0.4, 0.25, (2, 1, 8, 8)), 0.0, 1.0)
        y = np.array(labels)
        return _max_over(*(grad_check(lambda _t: step(model, x, y, cfg)[0], p)
                           for p in pick(model)))

    return check


# (name, seed, threshold, check): each seed is frozen so that adding or
# removing a check leaves every other check's inputs as they were
_CHECKS = [
    ("add", 0, OP_TOL, _check_add),
    ("mul", 1, OP_TOL, _check_mul),
    ("relu", 4, OP_TOL, _check_relu),
    ("sigmoid", 5, OP_TOL, _check_sigmoid),
    ("mean", 7, OP_TOL, _check_mean),
    ("reshape", 8, OP_TOL, _check_reshape),
    ("concat", 9, OP_TOL, _check_concat),
    ("slice", 10, OP_TOL, _check_slice),
    ("conv2d", 12, OP_TOL, _check_conv2d),
    ("linear", 13, OP_TOL, _check_linear),
    ("reduce_max", 14, OP_TOL, _check_reduce_max),
    ("broadcast_mul", 15, OP_TOL, _check_broadcast_mul),
    ("softmax_cross_entropy", 16, OP_TOL, _check_softmax_cross_entropy),
    ("global_avg_pool", 17, OP_TOL, _check_global_avg_pool),
    ("attention", 18, OP_TOL, _check_attention),
    ("spatial_pool", 19, OP_TOL, _check_spatial_pool),
    ("channel_pool", 20, OP_TOL, _check_channel_pool),
    ("unit_normalize", 21, OP_TOL, _check_unit_normalize),
    ("similarity", 22, OP_TOL, _check_similarity),
    ("det", 23, OP_TOL, _check_det),
    ("diversity_grad", 24, OP_TOL, _check_diversity_grad),
    # each training step's loss at the default config, then with the
    # switches that add ops
    ("esr_loss", 27, COMPOSITE_TOL, _step_check(
        "ensemble", 7, (0, 2), lambda m: [
            m.base.conv1.weights, m.branches[0].conv1.bias, m.branches[0].attn2.fc1.weights,
            m.branches[0].attn2.spatial_conv.weights, m.branches[0].head.weights],
        branch_max=2)),
    ("manet_loss", 28, COMPOSITE_TOL, _step_check(
        "dual_branch", 11, (1, 2), lambda m: [
            m.backbone.conv1.weights, m.global_conv.bias, m.local_convs[2].bias,
            m.local_head.weights, m.global_head.bias])),
    ("esr_loss_switches", 29, COMPOSITE_TOL, _step_check(
        "ensemble", 5, (2, 1), lambda m: [
            m.base.conv1.weights, m.branches[0].conv1.bias, m.branches[1].attn1.fc1.weights,
            m.branches[2].attn1.spatial_conv.weights, m.branches[1].head.weights],
        branch_max=3, diversity_tap="all", normalize_features=True)),
    ("manet_loss_switches", 30, COMPOSITE_TOL, _step_check(
        "dual_branch", 13, (0, 1), lambda m: [
            m.backbone.conv1.weights, m.local_convs[1].bias, m.local_attns[3].fc1.weights,
            m.global_attn.spatial_conv.weights, m.global_head.weights],
        pool_op="max", normalize_features=True)),
]


def run_suite() -> list[CheckResult]:
    """Run every check with its own seeded stream."""
    results = []
    for name, seed, threshold, fn in _CHECKS:
        err = fn(_rng(seed))
        results.append(CheckResult(name=name, max_rel_err=float(err),
                                   threshold=threshold, passed=err < threshold))
    return results


def report_text(results) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status} {r.name:<24s} max_rel_err={r.max_rel_err:.3e} "
                     f"(threshold {r.threshold:.0e})")
    failing = [r.name for r in results if not r.passed]
    lines.append("all checks passed" if not failing
                 else "failing: " + ", ".join(failing))
    return "\n".join(lines) + "\n"


def report_json(results) -> dict:
    return {
        "checks": [asdict(r) for r in results],
        "all_passed": all(r.passed for r in results),
    }
