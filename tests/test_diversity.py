"""Similarity matrix, determinant diversity, and both gradient routes."""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divreg.autodiff import (ShapeMismatch, Tensor, accumulate, add, backward, mul, neg,
                             reshape, tmean)
import divreg.diversity as diversity_module
from divreg.diversity import (_lu_dets, auto_gamma, channel_pool, det_gradient, det_t,
                              diversity_of_pooled, lu_det, measure_diversity,
                              similarity_matrix, similarity_matrix_t, spatial_pool,
                              unit_normalize)
from tape_oracle import exp, tsum

E_INV = 0.36787944117144233  # frozen: exp(-1)
ONE_MINUS_E_INV2 = 0.8646647167633873  # frozen: 1 - exp(-2)


def var(data):
    return Tensor(data, requires_grad=True)


def random_pooled(rng, learners, n, p):
    return [rng.normal(size=(n, p)) for _ in range(learners)]


def test_two_learner_frozen_entry_and_det():
    # unit squared distance per sample at gamma=1 -> S12 = e^-1
    a = np.zeros((2, 4))
    b = np.zeros((2, 4))
    b[:, 0] = 1.0
    s = similarity_matrix([a, b], gamma=1.0)
    assert s[0, 1] == s[1, 0]
    assert abs(s[0, 1] - E_INV) < 1e-15
    assert s[0, 0] == 1.0 and s[1, 1] == 1.0
    d = measure_diversity([a, b], "spatial", gamma=1.0)
    assert abs(d.value - ONE_MINUS_E_INV2) < 1e-15
    assert d.dimension == "spatial"
    assert d.node is None


def test_duplicate_learners_give_exact_zero():
    a = np.random.default_rng(0).normal(size=(3, 5))
    s = similarity_matrix([a, a.copy(), a + 1.0], gamma=0.5)
    assert lu_det(s) == 0.0


def test_single_learner_diversity_is_one():
    a = np.random.default_rng(1).normal(size=(4, 6))
    s = similarity_matrix([a], gamma=2.0)
    np.testing.assert_array_equal(s, np.eye(1))
    assert lu_det(s) == 1.0


def test_auto_gamma_is_inverse_pooled_length():
    assert auto_gamma(16) == 1.0 / 16
    a = np.zeros((1, 16))
    b = np.ones((1, 16))
    # ||a-b||^2 = 16, auto gamma 1/16 -> e^-1
    s = similarity_matrix([a, b])
    assert abs(s[0, 1] - E_INV) < 1e-15


def test_lu_det_matches_numpy():
    rng = np.random.default_rng(4)
    for n in range(1, 7):
        for _ in range(20):
            m = rng.normal(size=(n, n))
            np.testing.assert_allclose(lu_det(m), np.linalg.det(m),
                                       rtol=1e-10, atol=1e-12)


def test_lu_det_edge_cases():
    assert lu_det(np.zeros((0, 0))) == 1.0
    assert lu_det(np.array([[3.5]])) == 3.5
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert lu_det(singular) == 0.0
    with pytest.raises(ShapeMismatch):
        lu_det(np.zeros((2, 3)))


def test_det_gradient_adjugate_frozen():
    # frozen: d det / dS of [[1,s],[s,1]] is [[1,-s],[-s,1]]
    s = 0.25
    g = det_gradient(np.array([[1.0, s], [s, 1.0]]))
    np.testing.assert_array_equal(g, [[1.0, -s], [-s, 1.0]])


def test_det_gradient_matches_inverse_identity():
    rng = np.random.default_rng(5)
    for n in range(1, 6):
        m = rng.normal(size=(n, n)) + 2.0 * np.eye(n)
        want = np.linalg.det(m) * np.linalg.inv(m).T
        np.testing.assert_allclose(det_gradient(m), want, rtol=1e-9, atol=1e-10)


def test_det_gradient_finite_at_singular():
    m = np.array([[1.0, 1.0], [1.0, 1.0]])
    g = det_gradient(m)
    assert np.isfinite(g).all()
    np.testing.assert_array_equal(g, [[1.0, -1.0], [-1.0, 1.0]])


def scalar_lu_det(matrix):
    """Reference: one matrix, one row at a time (the pre-stacking loop)."""
    a = np.array(matrix, dtype=np.float64)
    n = a.shape[0]
    if n == 0:
        return 1.0
    sign = 1.0
    for col in range(n):
        piv = int(np.argmax(np.abs(a[col:, col]))) + col
        if a[piv, col] == 0.0:
            return 0.0
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            sign = -sign
        for row in range(col + 1, n):
            f = a[row, col] / a[col, col]
            a[row, col:] -= f * a[col, col:]
    det = sign
    for i in range(n):
        det *= a[i, i]
    return float(det)


def per_minor_det_gradient(matrix):
    """Reference: one scalar LU per minor (the pre-stacking cofactors)."""
    a = np.asarray(matrix, dtype=np.float64)
    n = a.shape[0]
    grad = np.empty((n, n))
    rows = np.arange(n)
    for i in range(n):
        for j in range(n):
            minor = a[np.ix_(rows != i, rows != j)]
            grad[i, j] = (-1.0) ** (i + j) * scalar_lu_det(minor)
    return grad


def near_duplicate_similarity(rng, learners, spread):
    """S of learners that are one shared feature set plus small noise."""
    feats = rng.normal(size=(1, 4, 16)) + spread * rng.normal(size=(learners, 4, 16))
    return similarity_matrix(list(feats), gamma=1 / 16)


def bit_cases(rng, n):
    m = rng.normal(size=(n, n))
    yield "random", m
    dup = rng.normal(size=(n, n))
    dup[-1] = dup[0]
    yield "duplicated_row", dup
    ints = rng.integers(-3, 4, size=(n, n)).astype(float)
    ints[:, rng.integers(n)] = 0.0
    yield "integer_zero_column", ints
    yield "near_duplicate_similarity", near_duplicate_similarity(rng, n, 1e-3)


@pytest.mark.parametrize("n", range(1, 16))
def test_stacked_lu_bits_equal_scalar_reference(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(2):
        for name, m in bit_cases(rng, n):
            got, want = np.float64(lu_det(m)), np.float64(scalar_lu_det(m))
            assert got.view(np.int64) == want.view(np.int64), (name, got, want)
            np.testing.assert_array_equal(det_gradient(m).view(np.int64),
                                          per_minor_det_gradient(m).view(np.int64),
                                          err_msg=name)


def test_det_backward_is_one_stacked_lu(monkeypatch):
    calls = {"lu_det": 0, "_lu_dets": 0}

    def counted(name):
        inner = getattr(diversity_module, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(diversity_module, name, counted(name))
    s = var(near_duplicate_similarity(np.random.default_rng(13), 15, 1e-2))
    node = diversity_module.det_t(s)
    assert calls["lu_det"] == 1
    calls.update(lu_det=0, _lu_dets=0)
    backward(node)
    assert calls == {"lu_det": 0, "_lu_dets": 1}


def exact_det_and_cofactors(matrix):
    """det(A) and det(A)·A⁻ᵀ in exact rationals by Gauss-Jordan."""
    n = len(matrix)
    a = [[Fraction(float(x)) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(matrix)]
    det = Fraction(1)
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        p = a[col][col]
        det *= p
        a[col] = [x / p for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det, [[float(det * a[j][n + i]) for j in range(n)] for i in range(n)]


# worst errors measured on the six matrices below (condition numbers
# 1.2e7-2.2e7, det about 1e-62); the bounds give a margin of 10x
MEASURED_COFACTOR_REL = 2.64e-7
MEASURED_DET_REL = 1.29e-10


def test_cofactors_match_exact_rationals_when_ill_conditioned():
    worst_cof = worst_det = 0.0
    for seed in range(6):
        s = near_duplicate_similarity(np.random.default_rng(seed), 12, 1e-3)
        det, cof = exact_det_and_cofactors(s)
        cof = np.array(cof)
        worst_cof = max(worst_cof, np.max(np.abs(det_gradient(s) - cof) / np.abs(cof)))
        worst_det = max(worst_det, abs(lu_det(s) - float(det)) / abs(float(det)))
    assert worst_cof <= 10 * MEASURED_COFACTOR_REL
    assert worst_det <= 10 * MEASURED_DET_REL


def test_stacked_lu_singular_stack_warns_nothing():
    zero_first_column = np.arange(16.0).reshape(4, 4)
    zero_first_column[:, 0] = 0.0
    stack = np.stack([np.zeros((4, 4)), np.ones((4, 4)), np.eye(4),
                      np.diag([1.0, 2.0, 0.0, 3.0]), zero_first_column])
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        dets = _lu_dets(stack)
    np.testing.assert_array_equal(dets, [0.0, 0.0, 1.0, 0.0, 0.0])
    assert not np.signbit(dets).any()


def test_spatial_channel_pool_shapes():
    d = np.random.default_rng(6).normal(size=(2, 3, 4, 4))
    sp = spatial_pool(Tensor(d))
    ch = channel_pool(Tensor(d))
    assert sp.data.shape == (2, 1, 4, 4)
    assert ch.data.shape == (2, 3, 1, 1)
    np.testing.assert_array_equal(sp.data, d.mean(axis=1, keepdims=True))
    np.testing.assert_array_equal(ch.data, d.mean(axis=(2, 3), keepdims=True))
    sp1 = spatial_pool(Tensor(d[:1]))
    assert sp1.data.shape == (1, 1, 4, 4)
    assert channel_pool(Tensor(d[:1])).data.shape == (1, 3, 1, 1)
    np.testing.assert_array_equal(sp1.data, d[:1].mean(axis=1, keepdims=True))
    for pool in (spatial_pool, channel_pool):
        for shape in ((4, 4), (3, 4, 4), (1, 2, 3, 1, 4, 4)):  # a batch or a learner stack
            with pytest.raises(ShapeMismatch):
                pool(Tensor(np.zeros(shape)))


@pytest.mark.parametrize("op", ["mean", "max"])
def test_pools_of_a_learner_stack_are_each_learners_pool(op):
    # (L, N, C, H, W) stacks in C order and, like the grouped conv's
    # output, learner-major with channels last
    d = np.random.default_rng(8).normal(size=(3, 2, 4, 5, 6))
    channels_last = d.transpose(0, 1, 4, 2, 3)
    assert channels_last.strides[2] == 8
    for stack in (Tensor(np.ascontiguousarray(channels_last)), Tensor(channels_last)):
        for pool in (spatial_pool, channel_pool):
            pooled = pool(stack, op=op)
            for j in range(3):
                alone = pool(stack[j], op=op)
                assert pooled.data[j].tobytes() == alone.data.tobytes(), (pool.__name__, j)


def test_max_pool_op():
    d = np.random.default_rng(7).normal(size=(2, 3, 4, 4))
    np.testing.assert_array_equal(spatial_pool(Tensor(d), op="max").data,
                                  d.max(axis=1, keepdims=True))
    np.testing.assert_array_equal(channel_pool(Tensor(d), op="max").data,
                                  d.max(axis=(2, 3), keepdims=True))


def test_unit_normalize_rows():
    d = np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 0.0]])
    out = unit_normalize(Tensor(d)).data
    np.testing.assert_allclose(out[0], [0.6, 0.8], rtol=1e-15)
    np.testing.assert_array_equal(out[1], [0.0, 0.0])  # zero row passes through
    np.testing.assert_array_equal(out[2], [1.0, 0.0])
    with pytest.raises(ShapeMismatch):
        unit_normalize(Tensor(np.zeros(3)))


def test_tensor_route_matches_array_route_bitwise():
    rng = np.random.default_rng(8)
    for normalize in (False, True):
        pooled = random_pooled(rng, 4, 5, 6)
        st_ = similarity_matrix_t([Tensor(p) for p in pooled], gamma=0.9,
                                  normalize=normalize)
        sa = similarity_matrix(pooled, gamma=0.9, normalize=normalize)
        assert np.array_equal(st_.data, sa)  # same op order, same floats
        assert float(det_t(Tensor(sa)).data) == lu_det(sa)


def per_pair_similarity(pooled, gamma, normalize):
    """The per-pair composition of tape ops that `similarity_matrix_t`
    replaces (seven nodes per learner pair): the oracle for its gradients."""
    n = pooled[0].data.shape[0]
    flat = [reshape(t, (n, t.data.size // n)) for t in pooled]
    if normalize:
        flat = [unit_normalize(f) for f in flat]
    neg_gamma = Tensor(-gamma)
    pairs, entries = [], []
    for l in range(len(flat)):
        for k in range(l + 1, len(flat)):
            diff = add(flat[l], neg(flat[k]))
            d2 = tsum(mul(diff, diff), axis=1)
            entries.append(tmean(exp(mul(d2, neg_gamma))))
            pairs.append((l, k))
    data = np.eye(len(flat))
    for (l, k), e in zip(pairs, entries):
        data[l, k] = data[k, l] = float(e.data)

    def back(g):
        for (l, k), e in zip(pairs, entries):
            accumulate(e, np.asarray(g[l, k] + g[k, l]))

    return Tensor.from_op(data, tuple(entries), back, "similarity_assemble")


def test_similarity_is_one_tape_op():
    rng = np.random.default_rng(13)
    pooled = [var(rng.normal(size=(3, 1, 2, 2))) for _ in range(3)]
    s = similarity_matrix_t(pooled, gamma=0.5)
    assert len(s._parents) == 3
    assert all(parent is t for parent, t in zip(s._parents, pooled))
    assert not similarity_matrix_t(pooled[:1]).requires_grad  # constant [[1]]


@pytest.mark.parametrize("normalize", [False, True])
def test_similarity_gradient_bitwise_equals_per_pair_tape(normalize):
    # from four learners on, each learner's gradient sums three or more
    # pair terms, so a different summation order would change the bits
    rng = np.random.default_rng(14)
    for learners in range(1, 9):
        data = [rng.normal(size=(5, 2, 2, 2)) for _ in range(learners)]
        upstream = Tensor(rng.normal(size=(learners, learners)))
        grads = []
        for build in (similarity_matrix_t, per_pair_similarity):
            pooled = [var(d) for d in data]
            s = build(pooled, 0.3, normalize)
            assert np.array_equal(s.data, similarity_matrix(data, gamma=0.3,
                                                            normalize=normalize))
            if learners == 1:
                assert not s.requires_grad
                continue
            backward(tsum(s * upstream))
            grads.append([t.grad.tobytes() for t in pooled])
        if learners > 1:
            assert grads[0] == grads[1], learners


def test_measure_equals_differentiable_score():
    rng = np.random.default_rng(9)
    pooled = random_pooled(rng, 3, 4, 5)
    live = diversity_of_pooled([var(p) for p in pooled], "channel", gamma=0.4)
    frozen = measure_diversity(pooled, "channel", gamma=0.4)
    assert live.value == frozen.value
    assert live.node is not None and frozen.node is None
    assert live.dimension == frozen.dimension == "channel"


def test_det_t_backward_is_cofactor_matrix():
    rng = np.random.default_rng(10)
    m = rng.normal(size=(3, 3)) + 2.0 * np.eye(3)
    mt = var(m)
    backward(det_t(mt))
    np.testing.assert_array_equal(mt.grad, det_gradient(m))


def test_similarity_chain_gradient_reaches_features():
    rng = np.random.default_rng(11)
    feats = [var(rng.normal(size=(2, 3, 4, 4))) for _ in range(3)]
    d_sp = diversity_of_pooled([spatial_pool(f) for f in feats], "spatial", gamma=0.5)
    d_ch = diversity_of_pooled([channel_pool(f) for f in feats], "channel", gamma=0.5)
    assert d_sp.dimension == "spatial" and d_ch.dimension == "channel"
    backward(d_sp.node + d_ch.node)
    for f in feats:
        assert f.grad is not None
        assert f.grad.shape == f.data.shape
        assert np.any(f.grad != 0.0)


def test_similarity_validation():
    for route, wrap in ((similarity_matrix, np.asarray), (similarity_matrix_t, var)):
        with pytest.raises(ValueError):
            route([])
        with pytest.raises(ShapeMismatch):
            route([wrap(np.zeros((2, 1, 4, 4))), wrap(np.zeros((2, 1, 4, 5)))])
        with pytest.raises(ShapeMismatch):
            route([wrap(np.zeros((2, 3))), wrap(np.zeros((3, 3)))])


def test_similarity_permutation_invariant_det():
    rng = np.random.default_rng(12)
    pooled = random_pooled(rng, 5, 3, 4)
    s = similarity_matrix(pooled, gamma=0.3)
    d = lu_det(s)
    perm = rng.permutation(5)
    s_perm = similarity_matrix([pooled[i] for i in perm], gamma=0.3)
    np.testing.assert_array_equal(s_perm, s[np.ix_(perm, perm)])
    assert abs(lu_det(s_perm) - d) < 1e-12


def test_well_separated_features_approach_full_diversity():
    # far-apart learners at high gamma: off-diagonals vanish, det -> 1
    pooled = [np.full((2, 4), 10.0 * i) for i in range(4)]
    s = similarity_matrix(pooled, gamma=1e3)
    assert abs(lu_det(s) - 1.0) < 1e-3


@st.composite
def pooled_sets(draw):
    learners = draw(st.integers(2, 6))
    n = draw(st.integers(1, 8))
    p = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2 ** 31))
    gamma = draw(st.floats(0.01, 10.0))
    rng = np.random.default_rng(seed)
    return [rng.normal(scale=2.0, size=(n, p)) for _ in range(learners)], gamma


@settings(max_examples=80, deadline=None)
@given(pooled_sets())
def test_similarity_invariants(case):
    pooled, gamma = case
    s = similarity_matrix(pooled, gamma=gamma)
    assert np.array_equal(s, s.T)
    assert np.all(np.diag(s) == 1.0)
    assert s.min() >= 0.0 and s.max() <= 1.0
    for l, k in zip(*np.nonzero(s == 0.0)):
        # zero only as float64 underflow of a positive quantity
        d2 = ((pooled[l] - pooled[k]) ** 2).sum(axis=1)
        assert gamma * d2.min() > 700.0
    assert np.linalg.eigvalsh(s).min() >= -1e-9
    d = lu_det(s)
    assert -1e-9 <= d <= 1.0 + 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2 ** 31))
def test_lu_det_property_matches_numpy(n, seed):
    m = np.random.default_rng(seed).normal(size=(n, n))
    np.testing.assert_allclose(lu_det(m), np.linalg.det(m), rtol=1e-9, atol=1e-12)
