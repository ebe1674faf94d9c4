"""Correctness checks computed apart from the program.

Each check recomputes a result of divreg by other means (finite
differences, vectorized numpy, an independent vote) and compares it with
the program's own output. Every check returns (name, ok, detail). They
run outside the timed windows.
"""

from __future__ import annotations

import numpy as np

FD_STEPS = (1e-5, 1e-6, 1e-7)
FD_RTOL = 1e-4
DET_ATOL = 1e-10  # |det S| error for an L<=15 unit-diagonal S with entries in [0,1]


def directional_derivative(name, loss, params, backward, rng, noise=0.0):
    """Tape gradient along a random unit direction against central
    differences (f(theta + h v) - f(theta - h v)) / 2h.

    The loss has kinks (relu, max pooling). A kink closer than h to theta
    along v spoils the difference at that step, so the check passes when
    the difference at any of three steps agrees; a wrong gradient agrees
    at none of them. `noise` is the loss's known rounding error, when it
    exceeds that of about 100 float64 operations.
    """
    for p in params:
        p.grad = None
    backward(loss())
    direction = [rng.standard_normal(p.data.shape) for p in params]
    norm = np.sqrt(sum(float((v * v).sum()) for v in direction))
    direction = [v / norm for v in direction]
    tape = sum(float((p.grad * v).sum()) for p, v in zip(params, direction)
               if p.grad is not None)
    saved = [p.data for p in params]

    def loss_at(t):
        for p, s, v in zip(params, saved, direction):
            p.data = s + t * v
        return float(loss().data)

    try:
        f0 = loss_at(0.0)
        diffs = [(loss_at(h) - loss_at(-h)) / (2 * h) for h in FD_STEPS]
    finally:
        for p, s in zip(params, saved):
            p.data = s
            p.grad = None
    # rounding in f(theta +- h v) alone moves a difference by about 2 noise / h
    noise = max(noise, 1e-14 * abs(f0))
    ok = any(abs(fd - tape) <= FD_RTOL * abs(tape) + 2 * noise / h
             for h, fd in zip(FD_STEPS, diffs))
    gaps = ", ".join(f"h={h:.0e}: {abs(fd - tape) / max(abs(tape), 1e-300):.1e}"
                     for h, fd in zip(FD_STEPS, diffs))
    return name, ok, f"tape {tape:.10g}; relative gap of the central difference {gaps}"


def pooled_learners(model, xb) -> dict:
    """Per diversity term, the learners' pooled maps on one batch as tape
    tensors: the last attention maps of the ensemble branches; the dual
    model's four patch paths (pooled across channels, across space) and
    its two branch vectors."""
    from divreg import Tensor, channel_pool, spatial_pool
    if hasattr(model, "branches"):
        _, maps = model.forward(Tensor(xb))
        last = [m[-1] for m in maps]
        return {"d_sp": [m.spatial_map for m in last], "d_ch": [m.channel_map for m in last]}
    res = model.forward(Tensor(xb))
    return {"d_sp": [spatial_pool(f) for f in res.patch_features],
            "d_ch": [channel_pool(f) for f in res.patch_features],
            "d_branch": list(res.branch_pooled)}


def diversity_terms(model, xb, cfg) -> dict:
    """The step's diversity scores as tape nodes."""
    from divreg import diversity_of_pooled
    return {k: diversity_of_pooled(v, k, gamma=cfg.gamma).node
            for k, v in pooled_learners(model, xb).items()}


def rbf_det(pooled, gamma):
    """det S of the batch-mean RBF similarity matrix S of L pooled (N, ...)
    arrays, all pairs at once (gamma None means 1 / pooled length), and
    how far rounding moves it: entries of S off by ~1e-15 move det S by up
    to L^2 1e-15 times the largest cofactor, ||adj S|| = s_1 ... s_(L-1)
    over the singular values of S."""
    x = np.stack([np.asarray(a).reshape(a.shape[0], -1) for a in pooled])  # (L, N, P)
    if gamma is None:
        gamma = 1.0 / x.shape[2]
    d2 = ((x[:, None] - x[None, :]) ** 2).sum(axis=3)  # (L, L, N)
    s = np.exp(-gamma * d2).mean(axis=2)
    np.fill_diagonal(s, 1.0)
    sv = np.linalg.svd(s, compute_uv=False)
    return float(np.linalg.det(s)), 1e-15 * len(sv) ** 2 * float(np.prod(sv[:-1]))


def numpy_scores(model, xb, cfg) -> dict:
    """Each D of the model on one batch and its rounding error, by rbf_det."""
    return {k: rbf_det([t.data for t in v], cfg.gamma)
            for k, v in pooled_learners(model, xb).items()}


def diversity_scores(ours, breakdown, records):
    """The program's D values on one batch against numpy_scores, and every
    logged D inside [0, 1] (Hadamard: det of a PSD unit-diagonal S)."""
    gaps = {k: abs(d - getattr(breakdown, k)) for k, (d, _) in ours.items()}
    logged = [getattr(r, k) for r in records for k in ("d_sp", "d_ch", "d_branch")
              if getattr(r, k) is not None]
    in_range = all(0.0 <= d <= 1.0 for d in logged + [d for d, _ in ours.values()])
    ok = max(gaps.values()) <= DET_ATOL and in_range
    detail = (", ".join(f"{k} {getattr(breakdown, k):.6g} gap {g:.1e}" for k, g in gaps.items())
              + f"; {len(logged)} logged D in [0,1]: {in_range}")
    return "diversity_recomputed", ok, detail


def _softmax(a):
    e = np.exp(a - a.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def recount_predictions(model, dataset, batch_size=64):
    """Predictions from the branch logits: majority vote with ties to the
    largest summed softmax (ensemble), or the lambda-mix argmax (dual)."""
    from divreg import Tensor
    preds = []
    for start in range(0, len(dataset), batch_size):
        x = Tensor(dataset.images[start:start + batch_size])
        if hasattr(model, "branches"):
            logits, _ = model.forward(x)
            probs = np.stack([_softmax(lg.data) for lg in logits])  # (B, N, K)
            k = probs.shape[2]
            counts = (probs.argmax(axis=2)[:, :, None] == np.arange(k)).sum(axis=0)
            tied = counts == counts.max(axis=1, keepdims=True)
            preds.append(np.where(tied, probs.sum(axis=0), -np.inf).argmax(axis=1))
        else:
            res = model.forward(x)
            lam = model.lambda_balance
            mixed = lam * _softmax(res.local_logits.data) + (1 - lam) * _softmax(res.global_logits.data)
            preds.append(mixed.argmax(axis=1))
    return np.concatenate(preds)


def reload_agrees(model, reloaded, in_memory, from_disk, predicted, recounted, labels):
    """The checkpoint holds the trained weights bit for bit, `evaluate`
    scores both models alike, and an independent vote over the reloaded
    model's logits gives the program's predictions and accuracy."""
    pairs = list(zip(model.parameters(), reloaded.parameters()))
    same_weights = (len(pairs) == len(model.parameters())
                    and all(np.array_equal(a.data, b.data) for a, b in pairs))
    accuracy = float((recounted == labels).mean())
    same_votes = np.array_equal(predicted, recounted)
    ok = (same_weights and same_votes and from_disk.accuracy == in_memory.accuracy == accuracy
          and from_disk.per_branch == in_memory.per_branch)
    return "reload_and_recount", ok, (
        f"weights bit-identical: {same_weights}; predictions recounted alike: {same_votes}; "
        f"accuracy in memory {in_memory.accuracy:.4f}, reloaded {from_disk.accuracy:.4f}, "
        f"recounted {accuracy:.4f}")


def above_floor(records, baseline, class_count):
    """The best epoch's held-out accuracy is at least halfway from chance
    to the nearest-template baseline. The best epoch, not the last: at lr
    0.02 a model that has learned can dip towards chance for an epoch."""
    chance = 1.0 / class_count
    floor = chance + 0.5 * (baseline - chance)
    accs = [r.test_acc for r in records]
    return "accuracy_floor", max(accs) >= floor, (
        f"best held-out accuracy {max(accs):.4f} (epoch {accs.index(max(accs)) + 1}, "
        f"last {accs[-1]:.4f}) vs floor {floor:.4f} (chance {chance:.4f}, "
        f"nearest template {baseline:.4f})")


def growth(result, model, cfg, initial_branches):
    """Branch count per epoch follows the schedule and every add left the
    existing branches' probe outputs bit-identical."""
    counts = [initial_branches]
    for epoch in range(1, cfg.epochs):
        grow = epoch % cfg.branch_add_epochs == 0 and counts[-1] < cfg.branch_max
        counts.append(counts[-1] + grow)
    seen = [r.branch_count for r in result.records]
    exact = all(c.bit_exact and c.max_abs_diff == 0.0 for c in result.add_checks)
    ok = (seen == counts and len(model.branches) == counts[-1]
          and len(result.add_checks) == counts[-1] - initial_branches and exact)
    return "growth", ok, (f"branches {seen[0]}->{seen[-1]} (expected {counts[0]}->{counts[-1]}), "
                          f"{len(result.add_checks)} adds, all probe-bit-exact: {exact}")


def same_run(model_a, result_a, model_b, result_b) -> bool:
    """Two `train` calls on the same inputs gave identical records and
    bit-identical final weights."""
    params_a, params_b = model_a.parameters(), model_b.parameters()
    return (result_a.records == result_b.records and len(params_a) == len(params_b)
            and all(np.array_equal(a.data, b.data) for a, b in zip(params_a, params_b)))
