"""Training: momentum SGD, loss compositions, and the epoch loop.

The two losses share one shape, classification minus a weighted sum of
diversity scores:

  ensemble: sum_b L_b - w (D_ch + D_sp), diversity over branch attention maps
  dual:     lam L_local + (1-lam) L_global - w (D_b + D_sp + D_ch)

The ensemble step runs all branches on one learner axis
(`EnsembleModel.stacked_forward`): sum_b L_b is one cross-entropy op over
the (L, N, K) logits, and each D reads the (L, N, ...) attention-map
stacks directly, so a step records the same number of tape nodes at any
branch count; the dual step pools its (4, N, ...) patch-path stack once per D.
The branches' parameters are (L, ...) blocks (see `nn.add_learner`): the
backward writes one gradient per block and `SGD` updates each block at once,
so neither grows with the branch count. `train` lists `model.parameters()`
once per epoch, after any branch add, not twice per step.

Subtracting diversity rewards dissimilar learners. Each loss takes
DiversityScores and returns the scalar loss tensor plus a LossBreakdown
whose total recomposes from the parts. With weight 0 the diversity terms
never enter the graph, so a weight-0 run and a switches-off run follow
bit-identical parameter trajectories; the scores are still computed, by
the same tape route, and logged.

The ensemble grows on a schedule: at the start of epoch e (0-based), a
branch is added when e > 0, e is a multiple of the add interval, and the
cap is not reached. Every add runs a probe forward to confirm existing
branch outputs are bit-identical before and after. `train` keeps each
step's LossBreakdown, and an epoch's record holds the mean of each of
their parts (a D no step computed stays None). Its `train_acc` counts the
hits of each step's own predictions (the vote or the mix of the logits
the step computes), each taken before its update; `test_acc` is one
held-out pass after the epoch. Inference (the probe, the held-out
pass, `evaluate`) runs under `no_grad` and records no tape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .autodiff import Tensor, backward, no_grad
from .data import batches
from .diversity import (DiversityScore, auto_gamma, channel_pool, diversity_of_pooled,
                        spatial_pool)
from .models import (DualBranchModel, EnsembleModel, add_branch, dual_predict,
                     ensemble_predict)
from .nn import softmax_cross_entropy

# images per forward of `evaluate` and the per-epoch held-out pass. On a
# 32 px, 3-branch ensemble a pass at 32 peaks at about half the memory of a
# training step at batch 16 (8.5 against 15.3 MiB under tracemalloc; 16.9
# at 64), so the held-out pass inside `train` does not raise its peak, and
# images per second are the same as at 64.
EVAL_BATCH_SIZE = 32


class NonFiniteLossError(RuntimeError):
    """Loss went NaN or infinite; message names epoch, batch and each part
    the step computed, in `LossBreakdown`'s field order."""

    def __init__(self, epoch: int, batch_index: int, breakdown: "LossBreakdown"):
        self.epoch = epoch
        self.batch_index = batch_index
        self.breakdown = breakdown
        parts = ", ".join(f"{name}={v}" for name, v in breakdown.parts().items()
                          if v is not None)
        super().__init__(f"non-finite loss at epoch {epoch + 1}, batch {batch_index}: {parts}")


@dataclass
class LossBreakdown:
    """One step's loss parts, a D the step did not compute None. An
    epoch's `EpochRecord` holds each part's mean, under the name a part's
    ``column`` metadata gives or else its own."""
    classification: float = field(metadata={"column": "loss_cls"})
    d_sp: float | None
    d_ch: float | None
    d_branch: float | None
    total: float = field(metadata={"column": "loss_total"})
    # the step's combined predictions (vote or mix), not a loss part
    predictions: np.ndarray | None = field(default=None, repr=False, compare=False)

    def parts(self) -> dict:
        """Each loss part by name, in field order."""
        return {name: getattr(self, name) for name in _LOSS_PARTS}

    def finite(self) -> bool:
        return all(v is None or math.isfinite(v) for v in self.parts().values())


# LossBreakdown's loss parts and the EpochRecord field each one's mean goes to
_LOSS_PARTS = {f.name: f.metadata.get("column", f.name)
               for f in fields(LossBreakdown) if f.name != "predictions"}


def _storage(params) -> list:
    """The tensors that hold ``params``, in order and each once: the block
    of a learner's `Row`, a lone tensor itself."""
    return list(dict.fromkeys(getattr(p, "block", p) for p in params))


class SGD:
    """v <- momentum v + g; theta <- theta - lr v, one update per parameter
    block (a learner group's block or a lone tensor), so a step makes the
    same numpy calls at any branch count. A tensor's velocity starts as its
    first gradient, and so do the rows a branch adds to a block."""

    def __init__(self, learning_rate: float, momentum: float = 0.0):
        if not learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.velocity: dict[Tensor, np.ndarray] = {}  # keyed by the tensor: an id can be reused

    def zero_grad(self, params):
        for t in _storage(params):
            t.grad = None

    def step(self, params):
        for t in _storage(params):
            g = t.grad if t.grad is not None else np.zeros_like(t.data)
            v = self.velocity.get(t)
            if v is None:
                v = g.copy()
            elif v.shape != g.shape:  # a block that grew since the last step
                v = np.concatenate([self.momentum * v + g[:len(v)], g[len(v):]])
            else:
                v = self.momentum * v + g
            self.velocity[t] = v
            t.data = t.data - self.learning_rate * v


def _score_value(score) -> float | None:
    return None if score is None else float(score.value)


def _penalty_terms(total: Tensor, scores, weight: float) -> Tensor:
    """total - weight * sum(scores); scores without a graph node enter as
    constants, and weight 0 leaves the graph untouched."""
    if weight == 0.0:
        return total
    terms = []
    for s in scores:
        if s is None:
            continue
        terms.append(s.node if s.node is not None else Tensor(s.value))
    if not terms:
        return total
    penalty = terms[0]
    for t in terms[1:]:
        penalty = penalty + t
    return total + penalty * Tensor(-weight)


def esr_loss(cls: Tensor, d_ch: DiversityScore | None,
             d_sp: DiversityScore | None, weight: float):
    """sum_b L_b - weight (D_ch + D_sp) -> (scalar tensor, LossBreakdown);
    ``cls`` is the branches' summed classification loss, sum_b L_b."""
    total = _penalty_terms(cls, (d_ch, d_sp), weight)
    bd = LossBreakdown(classification=float(cls.data), d_sp=_score_value(d_sp),
                       d_ch=_score_value(d_ch), d_branch=None, total=float(total.data))
    return total, bd


def manet_loss(l_local: Tensor, l_global: Tensor, d_b: DiversityScore | None,
               d_sp: DiversityScore | None, d_ch: DiversityScore | None,
               lambda_balance: float, weight: float):
    """lam L_local + (1-lam) L_global - weight (D_b + D_sp + D_ch)."""
    if not 0.0 <= lambda_balance <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lambda_balance}")
    cls = l_local * Tensor(lambda_balance) + l_global * Tensor(1.0 - lambda_balance)
    total = _penalty_terms(cls, (d_b, d_sp, d_ch), weight)
    bd = LossBreakdown(classification=float(cls.data), d_sp=_score_value(d_sp),
                       d_ch=_score_value(d_ch), d_branch=_score_value(d_b),
                       total=float(total.data))
    return total, bd


@dataclass
class EpochRecord:
    epoch: int  # 1-based
    branch_count: int
    train_acc: float
    test_acc: float
    loss_total: float
    loss_cls: float
    d_sp: float | None
    d_ch: float | None
    d_branch: float | None


@dataclass
class BranchAddCheck:
    epoch: int  # 1-based epoch the add happened at the start of
    branch_count: int
    bit_exact: bool
    max_abs_diff: float


@dataclass
class TrainResult:
    records: list[EpochRecord]
    add_checks: list[BranchAddCheck]


@dataclass
class EvalReport:
    accuracy: float  # majority vote / mixed-softmax accuracy
    per_class: list[float | None]
    per_branch: list[float]


def _mean_or_none(vals):
    vals = [v for v in vals if v is not None]
    return float(np.mean(vals)) if vals else None


def _ensemble_learners(maps, cfg) -> dict:
    """Per diversity term, the (L, N, ...) stack of the branches' attention
    maps at each tapped layer, from `stacked_forward`'s per-layer maps; no
    terms without attention."""
    if not maps:
        return {}
    tapped = maps[-1:] if cfg.diversity_tap == "last" else maps
    learners = {}
    if cfg.diversity_spatial:
        learners["spatial"] = [m.spatial_map for m in tapped]
    if cfg.diversity_channel:
        learners["channel"] = [m.channel_map for m in tapped]
    return learners


def _dual_learners(res, cfg) -> dict:
    """Per diversity term, one set of learners: the (4, N, ...) stack of
    the patch paths pooled across channels or across space, and the two
    branch GAP vectors whenever either patch term is on."""
    learners = {}
    if cfg.diversity_spatial:
        learners["spatial"] = [spatial_pool(res.patch_stack, op=cfg.pool_op)]
    if cfg.diversity_channel:
        learners["channel"] = [channel_pool(res.patch_stack, op=cfg.pool_op)]
    if learners:
        learners["branch"] = [list(res.branch_pooled)]
    return learners


def _mean_score(layers, dimension, cfg) -> DiversityScore:
    """D of each layer's learners, averaged over the layers."""
    scores = [diversity_of_pooled(pooled, dimension, gamma=cfg.gamma,
                                  normalize=cfg.normalize_features) for pooled in layers]
    node = scores[0].node
    for s in scores[1:]:
        node = node + s.node
    if len(scores) > 1:
        node = node * Tensor(1.0 / len(scores))
    return DiversityScore(value=float(node.data), dimension=dimension, node=node)


def _ensemble_step(model: EnsembleModel, xb, yb, cfg):
    logits, maps = model.stacked_forward(Tensor(xb))
    scores = {k: _mean_score(layers, k, cfg)
              for k, layers in _ensemble_learners(maps, cfg).items()}
    loss, bd = esr_loss(softmax_cross_entropy(logits, yb), scores.get("channel"),
                        scores.get("spatial"), cfg.diversity_weight)
    bd.predictions = ensemble_predict(logits.data)
    return loss, bd


def _dual_step(model: DualBranchModel, xb, yb, cfg):
    res = model.forward(Tensor(xb))
    l_local = softmax_cross_entropy(res.local_logits, yb)
    l_global = softmax_cross_entropy(res.global_logits, yb)
    scores = {k: _mean_score(layers, k, cfg) for k, layers in _dual_learners(res, cfg).items()}
    loss, bd = manet_loss(l_local, l_global, scores.get("branch"), scores.get("spatial"),
                          scores.get("channel"), model.lambda_balance, cfg.diversity_weight)
    bd.predictions = dual_predict(res.global_logits, res.local_logits, model.lambda_balance)
    return loss, bd


@no_grad()
def resolved_gammas(model, images, cfg) -> dict:
    """The gamma of each similarity matrix a step computes, per term and
    tapped layer: the configured one, or 1 / pooled length of the
    learners one forward over `images` gives."""
    if isinstance(model, EnsembleModel):
        learners = _ensemble_learners(model.stacked_forward(Tensor(images))[1], cfg)
    else:
        learners = _dual_learners(model.forward(Tensor(images)), cfg)
    return {k: [cfg.gamma if cfg.gamma is not None else auto_gamma(layer[0].data[0].size)
                for layer in layers]
            for k, layers in learners.items()}


@no_grad()
def _checked_add(model: EnsembleModel, probe_images, epoch: int) -> BranchAddCheck:
    before = model.stacked_forward(Tensor(probe_images))[0].data
    add_branch(model)
    after = model.stacked_forward(Tensor(probe_images))[0].data
    bit_exact, max_diff = True, 0.0
    for old, new in zip(before, after):
        if not np.array_equal(old, new):
            bit_exact = False
            max_diff = max(max_diff, float(np.max(np.abs(old - new))))
    return BranchAddCheck(epoch=epoch + 1, branch_count=len(model.branches),
                          bit_exact=bit_exact, max_abs_diff=max_diff)


@no_grad()
def _predict(model, dataset):
    """Combined predictions over the dataset, in batches of EVAL_BATCH_SIZE,
    and each branch's own argmax, one row per branch: the ensemble's
    branches, or [local head, global head] of the dual model."""
    preds, branch_preds = [], []
    for xb, _ in batches(dataset, min(EVAL_BATCH_SIZE, len(dataset)), shuffle_seed=None):
        x = Tensor(xb)
        if isinstance(model, EnsembleModel):
            logits = model.stacked_forward(x)[0].data
            preds.append(ensemble_predict(logits))
        else:
            res = model.forward(x)
            preds.append(dual_predict(res.global_logits, res.local_logits,
                                      model.lambda_balance))
            logits = np.stack([res.local_logits.data, res.global_logits.data])
        branch_preds.append(logits.argmax(axis=2))
    return np.concatenate(preds), np.concatenate(branch_preds, axis=1)


def predict_dataset(model, dataset) -> np.ndarray:
    """Combined predictions over the dataset, in batches of EVAL_BATCH_SIZE."""
    return _predict(model, dataset)[0]


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError(f"shape mismatch: {predictions.shape} vs {labels.shape}")
    return float((predictions == labels).mean())


def evaluate(model, dataset) -> EvalReport:
    """Overall (vote / mixed) accuracy plus per-class and per-branch, over
    batches of EVAL_BATCH_SIZE.

    Per-branch means each ensemble branch's own argmax; for the dual
    model it is [local head, global head].
    """
    predictions, branch_preds = _predict(model, dataset)
    labels = dataset.labels
    per_class: list[float | None] = []
    for k in range(dataset.class_count):
        mask = labels == k
        per_class.append(float((predictions[mask] == k).mean()) if mask.any() else None)
    return EvalReport(accuracy=accuracy(predictions, labels), per_class=per_class,
                      per_branch=[accuracy(p, labels) for p in branch_preds])


def train(model, train_set, test_set, config) -> TrainResult:
    """Run the full loop; returns per-epoch records and branch-add checks.

    Identical (model, datasets, config) inputs give identical records and
    final weights: shuffling and initialization draw from seed-derived
    streams only.
    """
    is_ensemble = isinstance(model, EnsembleModel)
    opt = SGD(config.learning_rate, config.momentum)
    records, add_checks = [], []
    for epoch in range(config.epochs):
        if (is_ensemble and epoch > 0 and epoch % config.branch_add_epochs == 0
                and len(model.branches) < model.branch_max):
            add_checks.append(_checked_add(model, train_set.images[:8], epoch))
        params = model.parameters()
        steps: list[LossBreakdown] = []
        hits = 0
        shuffle_seed = np.random.SeedSequence([config.seed, 17, epoch])
        for b_idx, (xb, yb) in enumerate(batches(train_set, config.batch_size,
                                                 shuffle_seed=shuffle_seed)):
            if is_ensemble:
                loss, bd = _ensemble_step(model, xb, yb, config)
            else:
                loss, bd = _dual_step(model, xb, yb, config)
            if not bd.finite():
                raise NonFiniteLossError(epoch, b_idx, bd)
            steps.append(bd)
            hits += int((bd.predictions == yb).sum())
            opt.zero_grad(params)
            backward(loss)
            opt.step(params)
        records.append(EpochRecord(
            epoch=epoch + 1,
            branch_count=len(model.branches) if is_ensemble else 2,
            train_acc=hits / len(train_set),
            test_acc=accuracy(predict_dataset(model, test_set), test_set.labels),
            **{column: _mean_or_none([getattr(s, part) for s in steps])
               for part, column in _LOSS_PARTS.items()},
        ))
    return TrainResult(records=records, add_checks=add_checks)
