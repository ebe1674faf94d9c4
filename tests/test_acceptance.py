"""Acceptance gate: ten go/no-go criteria, one test and one printed
pass/fail line each.

Each test states its tolerance inline and prints
``criterion N: PASS/FAIL - measured detail`` before asserting, so a
``pytest -v`` run reads as the acceptance checklist.
"""

import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divreg.autodiff import Tensor, backward
from divreg.cli import main
from divreg.config import ExperimentConfig
from divreg.data import Dataset, GeneratorConfig, generate, load_dataset, save_dataset
from divreg.diversity import (channel_pool, det_gradient, diversity_of_pooled,
                              lu_det, measure_diversity, similarity_matrix,
                              spatial_pool)
from divreg.models import (build_dual_branch, build_ensemble, load_checkpoint,
                           patchify, save_checkpoint, unpatchify)
from divreg.nn import softmax_cross_entropy
from divreg.training import SGD, manet_loss, train


def report(num: int, passed: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {num}: {detail}"


def similarity_trials(count=1000, seed=0xC2):
    """The randomized similarity family shared by criteria 2 and 3."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        learners = int(rng.integers(2, 9))        # L <= 8
        n = int(rng.integers(1, 17))              # N <= 16
        p = int(rng.integers(1, 17))
        gamma = float(rng.uniform(0.01, 10.0))
        pooled = [rng.normal(scale=rng.uniform(0.2, 3.0), size=(n, p))
                  for _ in range(learners)]
        yield similarity_matrix(pooled, gamma=gamma), pooled, gamma


def test_criterion_01_gradient_correctness(tmp_path):
    started = time.perf_counter()
    code = main(["gradcheck", "--out", str(tmp_path), "--quiet"])
    elapsed = time.perf_counter() - started
    doc = json.loads((tmp_path / "gradcheck.json").read_text())
    worst = {}
    ok = code == 0 and doc["all_passed"]
    for check in doc["checks"]:
        ok = ok and check["passed"] and check["max_rel_err"] < check["threshold"]
        # ops at 1e-5, composite losses at 1e-4
        assert check["threshold"] in (1e-5, 1e-4)
        worst[check["threshold"]] = max(worst.get(check["threshold"], 0.0),
                                        check["max_rel_err"])
    ok = ok and elapsed < 120.0
    report(1, ok, f"{len(doc['checks'])} checks, worst op err {worst[1e-5]:.2e} "
                  f"(<1e-5), worst composite {worst[1e-4]:.2e} (<1e-4), "
                  f"{elapsed:.1f}s (<120s)")


def test_criterion_02_similarity_matrix_properties():
    min_eig = np.inf
    count = underflows = 0
    for s, pooled, gamma in similarity_trials():
        count += 1
        assert np.array_equal(s, s.T)
        assert np.all(np.diag(s) == 1.0)
        assert s.min() >= 0.0 and s.max() <= 1.0
        # a zero entry is only the float64 rounding of a positive value:
        # every per-sample RBF argument must be deep in underflow range
        for l, k in zip(*np.nonzero(s == 0.0)):
            underflows += 1
            a = pooled[l].reshape(len(pooled[l]), -1)
            b = pooled[k].reshape(len(pooled[k]), -1)
            assert gamma * ((a - b) ** 2).sum(axis=1).min() > 700.0
        eig = np.linalg.eigvalsh(s).min()
        assert eig >= -1e-9
        min_eig = min(min_eig, eig)
    report(2, count == 1000,
           f"{count} trials symmetric/unit-diagonal, entries in (0,1] up to "
           f"{underflows} witnessed exp underflows, "
           f"min eigenvalue {min_eig:.2e} (>=-1e-9)")


def test_criterion_03_diversity_bounds_and_degeneracies():
    lo, hi = np.inf, -np.inf
    for s, _, _ in similarity_trials():
        d = lu_det(s)
        assert -1e-9 <= d <= 1.0 + 1e-9
        lo, hi = min(lo, d), max(hi, d)

    rng = np.random.default_rng(0xC3)
    for _ in range(50):
        a = rng.normal(size=(int(rng.integers(1, 9)), int(rng.integers(1, 9))))
        others = [rng.normal(size=a.shape) for _ in range(int(rng.integers(0, 3)))]
        s = similarity_matrix([a, a.copy()] + others, gamma=float(rng.uniform(0.01, 10)))
        assert lu_det(s) == 0.0  # duplicated learners: exactly singular

    separated = [np.full((3, 4), 5.0 * i) for i in range(5)]
    sep_gap = abs(lu_det(similarity_matrix(separated, gamma=1e3)) - 1.0)
    assert sep_gap < 1e-3

    worst_perm = 0.0
    for i, (s, pooled, gamma) in enumerate(similarity_trials(count=50, seed=0xC3A)):
        perm = rng.permutation(len(pooled))
        d_perm = lu_det(similarity_matrix([pooled[j] for j in perm], gamma=gamma))
        worst_perm = max(worst_perm, abs(d_perm - lu_det(s)))
    assert worst_perm <= 1e-12
    report(3, True, f"dets in [{lo:.2e}, {hi:.6f}], duplicates exactly 0, "
                    f"gamma=1e3 gap {sep_gap:.2e} (<1e-3), "
                    f"permutation drift {worst_perm:.2e} (<=1e-12)")


def test_criterion_04_det_gradient_oracle_equivalence():
    rng = np.random.default_rng(0xC4)
    worst_inv, worst_fd = 0.0, 0.0
    checked = 0
    while checked < 200:
        n = int(rng.integers(1, 7))  # L <= 6
        m = rng.normal(size=(n, n)) + 2.0 * np.eye(n)
        if abs(np.linalg.det(m)) < 1e-6:
            continue
        checked += 1
        grad = det_gradient(m)
        oracle = np.linalg.det(m) * np.linalg.inv(m).T
        rel = np.abs(grad - oracle).max() / max(1e-12, np.abs(oracle).max())
        assert rel < 1e-8
        worst_inv = max(worst_inv, rel)

        fd = np.zeros_like(m)
        eps = 1e-6
        for i in range(n):
            for j in range(n):
                hi, lo_ = m.copy(), m.copy()
                hi[i, j] += eps
                lo_[i, j] -= eps
                fd[i, j] = (np.linalg.det(hi) - np.linalg.det(lo_)) / (2 * eps)
        rel_fd = np.abs(grad - fd).max() / max(1.0, np.abs(fd).max())
        assert rel_fd < 1e-6
        worst_fd = max(worst_fd, rel_fd)

    # exactly singular: inverse route is unavailable, FD still must agree
    for n in (2, 3, 4):
        m = rng.normal(size=(n, n))
        m[-1] = m[0]
        assert lu_det(m) == 0.0
        grad = det_gradient(m)
        fd = np.zeros_like(m)
        eps = 1e-6
        for i in range(n):
            for j in range(n):
                hi, lo_ = m.copy(), m.copy()
                hi[i, j] += eps
                lo_[i, j] -= eps
                fd[i, j] = (np.linalg.det(hi) - np.linalg.det(lo_)) / (2 * eps)
        assert np.abs(grad - fd).max() / max(1.0, np.abs(fd).max()) < 1e-6
    report(4, True, f"200 invertible L<=6: vs det*inv^T {worst_inv:.2e} (<1e-8), "
                    f"vs finite differences {worst_fd:.2e} (<1e-6), "
                    f"singular cases agree")


def test_criterion_05_diversity_pressure():
    increases = 0
    for seed in range(50):
        model = build_ensemble(4, branch_max=3, seed=seed, input_size=8,
                               initial_branches=3)
        batch = Tensor(np.random.default_rng(1000 + seed).uniform(0, 1, (8, 1, 8, 8)))

        def scores():
            _, maps = model.forward(batch)
            sp = [bm[-1].spatial_map for bm in maps]
            ch = [bm[-1].channel_map for bm in maps]
            return (diversity_of_pooled(sp, "spatial"),
                    diversity_of_pooled(ch, "channel"))

        d_sp, d_ch = scores()
        assert 0.0 < d_sp.value < 1.0 and 0.0 < d_ch.value < 1.0  # non-degenerate
        before = d_sp.value + d_ch.value
        loss = -(d_sp.node + d_ch.node)
        opt = SGD(1e-3, momentum=0.0)
        opt.zero_grad(model.parameters())
        backward(loss)
        opt.step(model.parameters())
        d_sp2, d_ch2 = scores()
        after = d_sp2.value + d_ch2.value
        if after > before:
            increases += 1
    report(5, increases == 50,
           f"one -(D_ch+D_sp) step at lr=1e-3 raised D_ch+D_sp in "
           f"{increases}/50 random 3-branch initializations")


def test_criterion_06_training_direction():
    started = time.perf_counter()
    train_set, test_set = generate(GeneratorConfig())  # K=8, 800 samples
    rows = {}
    for seed in range(5):
        for weight in (1.0, 0.0):
            cfg = ExperimentConfig(model_family="ensemble", class_count=8,
                                   branch_max=3, branch_add_epochs=2,
                                   diversity_weight=weight, epochs=10,
                                   batch_size=16, learning_rate=0.02,
                                   momentum=0.9, seed=seed)
            model = build_ensemble(8, branch_max=3, seed=seed, input_size=32,
                                   initial_branches=3)
            final = train(model, train_set, test_set, cfg).records[-1]
            rows[(seed, weight)] = (final.d_sp + final.d_ch, final.test_acc)
    elapsed = time.perf_counter() - started
    wins = sum(rows[(s, 1.0)][0] > rows[(s, 0.0)][0] for s in range(5))
    acc_div = float(np.mean([rows[(s, 1.0)][1] for s in range(5)]))
    acc_base = float(np.mean([rows[(s, 0.0)][1] for s in range(5)]))
    ok = wins >= 4 and acc_div >= acc_base - 0.02 and elapsed < 600.0
    report(6, ok, f"final D_sp+D_ch higher in {wins}/5 seeds (need >=4), "
                  f"mean test acc {acc_div:.3f} vs baseline {acc_base:.3f} "
                  f"(need >= baseline-0.02), {elapsed:.0f}s (<600s)")


def test_criterion_07_esr_growth_schedule():
    rng = np.random.default_rng(0xC7)
    train_set = Dataset(rng.uniform(0, 1, (60, 1, 8, 8)),
                        np.arange(60, dtype=np.int64) % 3, 3)
    test_set = Dataset(rng.uniform(0, 1, (12, 1, 8, 8)),
                       np.arange(12, dtype=np.int64) % 3, 3)
    cfg = ExperimentConfig(model_family="ensemble", class_count=3, branch_max=15,
                           branch_add_epochs=1, epochs=15, batch_size=12, seed=0)
    model = build_ensemble(3, branch_max=15, seed=0, input_size=8)
    result = train(model, train_set, test_set, cfg)
    trajectory = [r.branch_count for r in result.records]
    all_exact = all(c.bit_exact and c.max_abs_diff == 0.0 for c in result.add_checks)
    ok = (trajectory == list(range(1, 16)) and len(model.branches) == 15
          and len(result.add_checks) == 14 and all_exact)
    report(7, ok, f"B_max=15, E_add=1, 15 epochs grew 1->{trajectory[-1]} branches, "
                  f"{len(result.add_checks)} adds all probe-bit-exact={all_exact}")


def test_criterion_08_dual_branch_structure():
    rng = np.random.default_rng(0xC8)
    d = rng.normal(size=(3, 5, 6, 10))
    roundtrip = unpatchify(patchify(Tensor(d)))
    patch_ok = np.array_equal(roundtrip.data, d)

    model = build_dual_branch(4, seed=0, input_size=16)
    batch = Tensor(rng.uniform(0, 1, (6, 1, 16, 16)))
    res = model.forward(batch)
    local_vec, global_vec = res.branch_pooled
    d_b = measure_diversity([local_vec.data, global_vec.data], "branch")
    s = similarity_matrix([local_vec.data, global_vec.data])
    det_gap = abs(d_b.value - (1.0 - s[0, 1] ** 2))
    db_ok = det_gap <= 1e-12

    d_sp = diversity_of_pooled([spatial_pool(f) for f in res.patch_features], "spatial")
    d_ch = diversity_of_pooled([channel_pool(f) for f in res.patch_features], "channel")
    d_b_live = diversity_of_pooled(list(res.branch_pooled), "branch")
    labels = np.arange(6) % 4
    l_local = softmax_cross_entropy(res.local_logits, labels)
    l_global = softmax_cross_entropy(res.global_logits, labels)
    total, bd = manet_loss(l_local, l_global, d_b_live.node, d_sp.node, d_ch.node, 0.6, 1.0)
    lam_part = 0.6 * float(l_local.data) + 0.4 * float(l_global.data)
    recompose_gap = max(
        abs(bd.total - (bd.classification - (bd.d_branch + bd.d_sp + bd.d_ch))),
        abs(bd.classification - lam_part))
    ok = patch_ok and db_ok and recompose_gap <= 1e-12
    report(8, ok, f"patchify roundtrip bit-exact={patch_ok}, "
                  f"|D_b - (1 - S12^2)| = {det_gap:.2e} (<=1e-12), "
                  f"loss recomposition gap {recompose_gap:.2e} (<=1e-12)")


def test_criterion_09_determinism_and_ablation_identity(tmp_path):
    gen_cfg = {"class_count": 3, "samples_per_class": 10, "seed": 0,
               "noise_sigma": 0.05, "occlusion_prob": 0.3, "occlusion_size": 4}
    (tmp_path / "gen.json").write_text(json.dumps(gen_cfg))
    assert main(["gen-data", "--config", str(tmp_path / "gen.json"),
                 "--out", str(tmp_path / "data"), "--quiet"]) == 0
    base = {"model_family": "ensemble", "class_count": 3, "branch_max": 2,
            "branch_add_epochs": 1, "epochs": 3, "batch_size": 8,
            "learning_rate": 0.01, "momentum": 0.9, "seed": 0,
            "dataset_path": str(tmp_path / "data")}

    def run(name, doc):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        assert main(["train", "--config", str(tmp_path / f"{name}.json"),
                     "--out", str(tmp_path / name), "--quiet"]) == 0
        return tmp_path / name

    a = run("a", base)
    b = run("b", base)
    rerun_ok = ((a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
                and (a / "model.dvrg").read_bytes() == (b / "model.dvrg").read_bytes())

    w0 = run("w0", dict(base, diversity_weight=0.0))
    off = run("off", dict(base, diversity_spatial=False, diversity_channel=False))
    weights_ok = (w0 / "model.dvrg").read_bytes() == (off / "model.dvrg").read_bytes()
    report(9, rerun_ok and weights_ok,
           f"identical rerun byte-identical={rerun_ok}, "
           f"weight-0 final weights match switches-off run={weights_ok}")


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 10), st.integers(2, 12), st.integers(2, 12),
       st.integers(2, 5), st.integers(0, 2 ** 31))
def test_criterion_10a_dataset_roundtrip(tmp_path_factory, n, h, w, classes, seed):
    rng = np.random.default_rng(seed)
    ds = Dataset(rng.uniform(0, 1, (n, 1, h, w)).astype(np.float32).astype(np.float64),
                 rng.integers(0, classes, n).astype(np.int64), classes)
    root = tmp_path_factory.mktemp("c10a")
    save_dataset(ds, root / "one.dvds")
    save_dataset(load_dataset(root / "one.dvds"), root / "two.dvds")
    assert (root / "one.dvds").read_bytes() == (root / "two.dvds").read_bytes()


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["ensemble", "dual_branch"]), st.integers(2, 5),
       st.sampled_from([8, 12, 16]), st.booleans(), st.integers(0, 3),
       st.integers(0, 2 ** 31))
def test_criterion_10b_checkpoint_roundtrip(tmp_path_factory, family, classes,
                                            input_size, attention, extra, seed):
    if family == "dual_branch" and input_size == 12:
        input_size = 16  # backbone output must have an even side to patchify
    if family == "ensemble":
        model = build_ensemble(classes, branch_max=1 + extra, seed=seed % 100,
                               attention_enabled=attention, input_size=input_size,
                               initial_branches=1 + (extra % (1 + extra)))
    else:
        model = build_dual_branch(classes, attention_enabled=attention,
                                  seed=seed % 100, input_size=input_size,
                                  lambda_balance=(seed % 11) / 10.0)
    rng = np.random.default_rng(seed)
    for p in model.parameters():
        p.data = rng.normal(size=p.data.shape)
    root = tmp_path_factory.mktemp("c10b")
    save_checkpoint(model, root / "one.dvrg")
    save_checkpoint(load_checkpoint(root / "one.dvrg"), root / "two.dvrg")
    assert (root / "one.dvrg").read_bytes() == (root / "two.dvrg").read_bytes()


def test_criterion_10_format_roundtrips_summary():
    # the two property tests above are the evidence; this emits the line
    report(10, True, "DVDS and DVRG save->load->save byte-identical under "
                     "25+25 randomized property trials")
