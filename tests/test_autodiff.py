"""Gradient and contract tests for the autodiff substrate."""
import inspect
import re
import zlib
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from gilt import autodiff as ad


_F32_EPS = float(np.finfo(np.float32).eps)


def _rand(shape, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) * scale


def _mask(shape, seed, p=0.3, dtype=np.float64):
    """A fixed inverted-dropout keep mask: 0 or 1/(1-p) per entry."""
    return (np.random.default_rng(seed).random(shape) >= p).astype(dtype) * (1.0 / (1.0 - p))


def _check_unary(op, shape, seed, **kwargs):
    x = ad.Tensor(_rand(shape, seed), requires_grad=True)
    report = ad.grad_check(lambda: ad.sum_(op(x, **kwargs)), {"x": x})
    assert report.passed, f"{op.__name__}: {report.max_rel_err}"


def test_softmax_of_zeros_is_uniform():
    # a zero query projection makes every attention score 0, so each row of
    # `a` reads the plain mean of the value rows
    b, wv, wo = _rand((5, 4), 24), _rand((4, 4), 25), _rand((4, 4), 26)
    out = ad.attention(_rand((3, 4), 27), b, np.zeros((4, 4)), _rand((4, 4), 28), wv, wo,
                       2).values
    np.testing.assert_allclose(out, np.tile((b @ wv).mean(axis=0) @ wo, (3, 1)), atol=1e-12)


def _ln(x):
    return ad.layernorm(x, np.ones(x.shape[-1]), np.zeros(x.shape[-1]))


def test_layernorm_gradient_vs_central_differences():
    x = ad.Tensor(_rand((4, 8), 11), requires_grad=True)
    gamma = ad.Tensor(_rand(8, 13), requires_grad=True)
    beta = ad.Tensor(_rand(8, 14), requires_grad=True)
    w = ad.Tensor(_rand((4, 8), 12), requires_grad=False)
    report = ad.grad_check(lambda: ad.sum_(ad.mul(ad.layernorm(x, gamma, beta), w)),
                           {"x": x, "gamma": gamma, "beta": beta})
    assert report.max_rel_err < 1e-6, report.max_rel_err


def test_layernorm_rows_standardized():
    x = ad.Tensor(_rand((6, 16), 3, scale=2.0))
    out = _ln(x).values
    np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.var(axis=1), 1.0, atol=1e-10)


def test_layernorm_applies_affine_after_standardizing():
    x = _rand((5, 6), 4)
    gamma, beta = _rand(6, 5), _rand(6, 6)
    mu = x.mean(axis=1, keepdims=True)
    want = (x - mu) / np.sqrt(x.var(axis=1, keepdims=True)) * gamma + beta
    got = ad.layernorm(ad.Tensor(x), gamma, beta).values
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_layernorm_near_constant_row_stays_finite():
    x = ad.Tensor(np.full((1, 4), 2.5))
    out = _ln(x).values
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_layernorm_near_constant_row_gradient():
    # variance ~1e-9 sits below the eps floor, so the denominator is the
    # constant sqrt(eps) and the gradient is the centering map over it
    x = ad.Tensor(2.5 + 1e-4 * _rand((2, 6), 15), requires_grad=True)
    gamma = ad.Tensor(_rand(6, 16), requires_grad=True)
    w = _rand((2, 6), 17)
    report = ad.grad_check(
        lambda: ad.sum_(ad.mul(ad.layernorm(x, gamma, np.zeros(6)), w)),
        {"x": x, "gamma": gamma})
    assert report.passed, report.max_rel_err
    assert np.all(np.isfinite(x.grad))


def _reference_layernorm(x, gamma, beta, g, eps=ad.LAYERNORM_EPS):
    """The multi-pass LayerNorm the one-pass op replaced, kept as its oracle:
    output, then the x, gamma and beta gradients for the output seed g."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    denom = np.sqrt(np.maximum(var, eps))
    xhat = centered / denom
    gg = g * gamma
    g_centered = gg - gg.mean(axis=-1, keepdims=True)
    corr = xhat * (gg * xhat).mean(axis=-1, keepdims=True)
    dx = np.where(var > eps, (g_centered - corr) / denom, g_centered / denom)
    lead = tuple(range(x.ndim - 1))
    return xhat * gamma + beta, dx, (g * xhat).sum(axis=lead), g.sum(axis=lead)


def _layernorm_inputs(shape, dtype):
    """Random rows plus a constant row and a near-constant row (variance
    ~1e-8, under the eps floor); a one-row shape gives one input of each.

    The near-constant row sits on a grid of 2**-14 steps, so its sum is exact
    in any order and in float32: the floor multiplies rounding in the row
    mean by 1/sqrt(eps), which would measure summation order, not the op
    (see the float64-oracle test below for rows off the grid)."""
    rng = np.random.default_rng(shape[-1] * 1000 + len(shape))
    x = rng.standard_normal(shape) * 1.5 + 0.3
    near = 2.5 + rng.integers(-3, 4, shape[-1]) * 2.0 ** -14
    rows = x.reshape(-1, shape[-1])
    if rows.shape[0] == 1:
        return [np.full(shape, 2.5, dtype), near.reshape(shape).astype(dtype)]
    rows[0], rows[-1] = 2.5, near
    return [x.astype(dtype)]


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12),
                                       (np.float32, 8 * _F32_EPS)])
@pytest.mark.parametrize("shape", [(1, 32), (4800, 32), (7, 64), (2, 5, 8)])
def test_layernorm_matches_reference(shape, dtype, tol):
    rng = np.random.default_rng(len(shape))
    m = shape[-1]
    gamma_v = rng.uniform(0.5, 2.0, m).astype(dtype)
    beta_v = rng.standard_normal(m).astype(dtype)
    seed = rng.standard_normal(shape).astype(dtype)
    for x_v in _layernorm_inputs(shape, dtype):
        x = ad.Tensor(x_v, requires_grad=True)
        gamma = ad.Tensor(gamma_v, requires_grad=True)
        beta = ad.Tensor(beta_v, requires_grad=True)
        out = ad.layernorm(x, gamma, beta)
        out.backward(seed)
        want = _reference_layernorm(x_v, gamma_v, beta_v, seed)
        for name, got, ref in zip(("out", "dx", "dgamma", "dbeta"),
                                  (out.values, x.grad, gamma.grad, beta.grad), want):
            assert got.dtype == dtype and got.shape == ref.shape, name
            # a constant one-row input has xhat = 0, so its dgamma must be 0 exactly
            scale = max(np.max(np.abs(ref)), np.finfo(dtype).tiny)
            err = np.max(np.abs(got.astype(np.float64) - ref)) / scale
            assert err <= tol, f"{name}: {err:.2e}"


def test_layernorm_float32_near_constant_rows_as_accurate_as_reference():
    # Off the grid, a clipped row's centring rounds, and the floor's
    # 1/sqrt(eps) gain turns that into ~1e-3 relative error in float32 for
    # either op. Against a float64 oracle the one-pass op stays within twice
    # the reference's error (plus 8 float32 eps for errors at rounding level).
    rng = np.random.default_rng(61)
    x = (2.5 + 1e-4 * rng.standard_normal((256, 32))).astype(np.float32)
    gamma_v = rng.uniform(0.5, 2.0, 32).astype(np.float32)
    beta_v = rng.standard_normal(32).astype(np.float32)
    seed = rng.standard_normal((256, 32)).astype(np.float32)
    oracle = _reference_layernorm(*(a.astype(np.float64) for a in (x, gamma_v, beta_v, seed)))
    ref = _reference_layernorm(x, gamma_v, beta_v, seed)
    leaves = [ad.Tensor(a, requires_grad=True) for a in (x, gamma_v, beta_v)]
    out = ad.layernorm(*leaves)
    out.backward(seed)
    for name, got, r, o in zip(("out", "dx", "dgamma", "dbeta"),
                               (out.values, *(t.grad for t in leaves)), ref, oracle):
        scale = np.max(np.abs(o))
        err_new, err_ref = (np.max(np.abs(a - o)) / scale for a in (got, r))
        assert err_new <= 2 * err_ref + 8 * _F32_EPS, (name, err_new, err_ref)


def test_layernorm_is_one_pass():
    # no full-array select and no broadcast-undo loop in the op or its VJPs
    src = inspect.getsource(ad.layernorm)
    assert "np.where" not in src and "_unbroadcast" not in src


@pytest.mark.parametrize("op,kwargs", [
    (ad.relu, {}),
    (ad.normalize_rows, {"floor": 1e-12}),
    (ad.log_softmax, {}),
    (ad.mul, {"b": -2.5}),
    (ad.layernorm, {"gamma": np.linspace(0.5, 2.0, 7), "beta": np.full(7, 0.3)}),
])
def test_unary_op_gradients(op, kwargs):
    shape = (3, 7)
    # crc32, not hash(): str hashes are salted per process
    seed = zlib.crc32(op.__name__.encode()) % 1000
    x = ad.Tensor(np.abs(_rand(shape, seed)) + 0.5, requires_grad=True)
    w = _rand(shape, seed + 1)
    report = ad.grad_check(lambda: ad.sum_(ad.mul(op(x, **kwargs), w)), {"x": x})
    assert report.passed, f"{op.__name__}: {report.max_rel_err}"


@pytest.mark.parametrize("shape_a,shape_b", [((3, 4), (3, 4)), ((3, 4), (1, 4)), ((3, 4), (3, 1)), ((3, 4), ())])
def test_broadcast_binary_gradients(shape_a, shape_b):
    a = ad.Tensor(_rand(shape_a, 1), requires_grad=True)
    b = ad.Tensor(_rand(shape_b, 2) + 2.0, requires_grad=True)
    for op in (ad.add, ad.mul):
        a.zero_grad(), b.zero_grad()
        report = ad.grad_check(lambda op=op: ad.sum_(op(a, b)), {"a": a, "b": b})
        assert report.passed, f"{op.__name__} {shape_a}x{shape_b}: {report.max_rel_err}"


def test_matmul_gradients_including_transpose():
    a = ad.Tensor(_rand((3, 5), 4), requires_grad=True)
    b = ad.Tensor(_rand((5, 2), 5), requires_grad=True)
    report = ad.grad_check(lambda: ad.sum_(ad.matmul(a, b)), {"a": a, "b": b})
    assert report.passed
    c = ad.Tensor(_rand((4, 5), 6), requires_grad=True)
    report = ad.grad_check(lambda: ad.sum_(ad.matmul(a, c, transpose_b=True)), {"a": a, "c": c})
    assert report.passed


def test_batched_matmul_matches_per_batch_products():
    a = ad.Tensor(_rand((2, 3, 4), 30), requires_grad=True)
    b = ad.Tensor(_rand((2, 5, 4), 31), requires_grad=True)
    out = ad.matmul(a, b, transpose_b=True).values
    for i in range(2):
        np.testing.assert_allclose(out[i], a.values[i] @ b.values[i].T, atol=1e-12)
    w = _rand((2, 3, 5), 32)
    report = ad.grad_check(
        lambda: ad.sum_(ad.mul(ad.matmul(a, b, transpose_b=True), w)), {"a": a, "b": b})
    assert report.passed, report.max_rel_err
    # a shared 2-D right operand collects gradient from every batch entry
    c = ad.Tensor(_rand((4, 2), 33), requires_grad=True)
    report = ad.grad_check(lambda: ad.sum_(ad.matmul(a, c)), {"a": a, "c": c})
    assert report.passed, report.max_rel_err


def test_const_matmul_sparse_and_dense_agree():
    dense = _rand((6, 6), 8)
    x = ad.Tensor(_rand((6, 3), 9), requires_grad=True)
    sparse = sp.csr_matrix(dense)
    out_d = ad.const_matmul(dense, x, mat_t=dense.T)
    out_s = ad.const_matmul(sparse, x, mat_t=sparse.T)
    np.testing.assert_allclose(out_d.values, out_s.values, atol=1e-12)
    report = ad.grad_check(lambda: ad.sum_(ad.const_matmul(sparse, x, mat_t=sparse.T)),
                           {"x": x})
    assert report.passed


def test_concat_slice_take_rows_gradients():
    a = ad.Tensor(_rand((4, 3), 10), requires_grad=True)
    b = ad.Tensor(_rand((4, 2), 11), requires_grad=True)

    def f():
        joined = ad.concat([a, b], axis=1)
        left = ad.slice_cols(joined, 0, 3)
        picked = ad.take_rows(joined, [0, 0, 2, 3])
        block = ad.take_rows(joined, slice(1, 3))
        return ad.add(ad.add(ad.sum_(left), ad.sum_(picked)), ad.sum_(ad.mul(block, block)))

    report = ad.grad_check(f, {"a": a, "b": b})
    assert report.passed


def test_reduction_gradients():
    x = ad.Tensor(_rand((3, 4), 12), requires_grad=True)
    for axis, n in ((None, 12), (0, 3), (1, 4)):
        report = ad.grad_check(
            lambda axis=axis, n=n: ad.sum_(ad.mul(ad.mul(ad.sum_(x, axis=axis), 1.0 / n),
                                                  2.0)),
            {"x": x})
        assert report.passed, f"sum axis={axis}"


def test_normalize_rows_units_and_zero_row():
    x = np.vstack([_rand((2, 4), 40), np.zeros((1, 4))])
    out = ad.normalize_rows(ad.Tensor(x), 1e-12).values
    np.testing.assert_allclose(out[:2], x[:2] / np.linalg.norm(x[:2], axis=1, keepdims=True),
                               atol=1e-12)
    np.testing.assert_array_equal(out[2], 0.0)


def test_normalize_rows_gradient_at_zero_row_is_finite():
    x = ad.Tensor(np.vstack([_rand((1, 3), 41), np.zeros((1, 3))]), requires_grad=True)
    w = _rand((2, 3), 42)
    ad.sum_(ad.mul(ad.normalize_rows(x, 1e-12), w)).backward()
    assert np.all(np.isfinite(x.grad))
    # below the floor the op is x / floor, so its gradient is w / floor
    np.testing.assert_allclose(x.grad[1], w[1] / 1e-12)


def test_normalize_rows_gradient_below_and_above_floor():
    # row 0 has norm ~0.05 (below the 0.5 floor: linear), row 1 norm ~3
    x = ad.Tensor(np.array([[0.03, -0.04, 0.0], [1.0, 2.0, -2.0]]), requires_grad=True)
    w = _rand((2, 3), 43)
    report = ad.grad_check(lambda: ad.sum_(ad.mul(ad.normalize_rows(x, 0.5), w)), {"x": x})
    assert report.passed, report.max_rel_err
    np.testing.assert_allclose(ad.normalize_rows(x, 0.5).values[0], x.values[0] / 0.5)


def _softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def test_log_softmax_matches_log_of_softmax():
    x = _rand((3, 5), 44, scale=3.0)
    got = ad.log_softmax(ad.Tensor(x)).values
    want = np.log(_softmax(x))
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_log_softmax_large_gap_gives_finite_loss_and_gradient():
    # a 60-nat gap makes the true class probability ~1e-26: the loss is the
    # gap itself and the gradient still points at the true class
    logits = ad.Tensor(np.array([[0.0, -60.0], [-45.0, 0.0]]), requires_grad=True)
    logp = ad.log_softmax(logits)
    loss = ad.sum_(ad.mul(logp, np.array([[0.0, -0.5], [-0.5, 0.0]])))
    assert np.isfinite(loss.values)
    np.testing.assert_allclose(loss.values, 52.5)
    loss.backward()
    assert np.all(np.isfinite(logits.grad))
    np.testing.assert_allclose(logits.grad, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)


def test_class_means_matches_numpy_and_rejects_missing_class():
    x = _rand((5, 3), 45)
    labels = np.array([1, 0, 1, 1, 0])
    out = ad.class_means(ad.Tensor(x), labels, 2).values
    np.testing.assert_allclose(out, [x[[1, 4]].mean(axis=0), x[[0, 2, 3]].mean(axis=0)],
                               atol=1e-12)
    with pytest.raises(ValueError, match="class 2 has no support rows"):
        ad.class_means(ad.Tensor(x), labels, 3)


def test_class_means_gradient():
    x = ad.Tensor(_rand((6, 4), 46), requires_grad=True)
    w = _rand((3, 4), 47)
    labels = np.array([2, 0, 1, 1, 0, 2])
    report = ad.grad_check(lambda: ad.sum_(ad.mul(ad.class_means(x, labels, 3), w)), {"x": x})
    assert report.passed, report.max_rel_err


# Ops on 3-D inputs [B x rows x cols]: (call on the input tensors and a
# slice of the batch that picks the matching rows of the constants, inputs).
_BATCHED = {
    "attention": (lambda t, b: ad.attention(t[0], t[0], *t[1:], 2,
                                            _mask((3, 2, 4, 4), 120)[b]),
                  [_rand((3, 4, 6), 121)]
                  + [_rand((6, 6), s, scale=0.5) for s in range(122, 126)]),
    "attention-cross": (lambda t, b: ad.attention(*t, 2, _mask((3, 2, 2, 4), 126)[b]),
                        [_rand((3, 2, 6), 127), _rand((3, 4, 6), 128)]
                        + [_rand((6, 6), s, scale=0.5) for s in range(129, 133)]),
    "class_means": (lambda t, b: ad.class_means(t[0], _BATCH_LABELS[b], 3),
                    [_rand((2, 6, 4), 133)]),
    "take_rows-slice": (lambda t, b: ad.take_rows(t[0], slice(1, 3)), [_rand((2, 4, 3), 134)]),
    "take_rows-index": (lambda t, b: ad.take_rows(t[0], np.array([[0, 0, 2], [3, 1, 1]])[b]),
                        [_rand((2, 4, 3), 135)]),
    "matmul-batched": (lambda t, b: ad.matmul(*t, transpose_b=True),
                       [_rand((2, 4, 5), 136), _rand((2, 3, 5), 137)]),
    "matmul-shared-weight": (lambda t, b: ad.matmul(*t, transpose_b=True),
                             [_rand((2, 4, 6), 138), _rand((5, 6), 139)]),
}
_ALL = slice(None)


@pytest.mark.parametrize("name", sorted(_BATCHED))
def test_batched_gradients(name):
    call, arrays = _BATCHED[name]
    leaves = {f"x{i}": ad.Tensor(a, requires_grad=True) for i, a in enumerate(arrays)}
    w = _rand(call(list(leaves.values()), _ALL).shape, 140)
    report = ad.grad_check(lambda: ad.sum_(ad.mul(call(list(leaves.values()), _ALL), w)),
                           leaves)
    assert report.passed, report


@pytest.mark.parametrize("name", sorted(_BATCHED))
def test_batched_op_is_each_batch_element_alone(name):
    # a batch element's output and its input gradients are those of the
    # element run on its own; a shared weight's gradient is their sum
    call, arrays = _BATCHED[name]
    batched = [ad.Tensor(a, requires_grad=True) for a in arrays]
    out = call(batched, _ALL)
    seed = _rand(out.shape, 141)
    out.backward(seed)
    weight_grads = [np.zeros_like(a) for a in arrays]
    for i in range(out.shape[0]):
        b = slice(i, i + 1)
        one = [ad.Tensor(a[b] if a.ndim == 3 else a, requires_grad=True) for a in arrays]
        part = call(one, b)
        part.backward(seed[b])
        np.testing.assert_allclose(part.values[0], out.values[i], rtol=0, atol=1e-12)
        for j, (a, t) in enumerate(zip(arrays, one)):
            if a.ndim == 3:
                np.testing.assert_allclose(t.grad[0], batched[j].grad[i], rtol=0, atol=1e-12)
            else:
                weight_grads[j] += t.grad
    for a, t, g in zip(arrays, batched, weight_grads):
        if a.ndim != 3:
            np.testing.assert_allclose(t.grad, g, rtol=0, atol=1e-12)


def _attention_inputs(seed, dtype=np.float64):
    rng = np.random.default_rng(seed)
    a, b = (ad.Tensor(rng.standard_normal((n, 6)).astype(dtype), requires_grad=True)
            for n in (3, 5))
    ws = {w: ad.Tensor(rng.uniform(-0.8, 0.8, (6, 6)).astype(dtype), requires_grad=True)
          for w in ("wq", "wk", "wv", "wo")}
    return a, b, ws


@pytest.mark.parametrize("self_attention", [True, False], ids=["a-is-b", "a-and-b"])
def test_attention_gradients_with_dropout(self_attention):
    a, b, ws = _attention_inputs(53)
    if self_attention:
        b = a
    w, mask = _rand((3, 6), 54), _mask((3, 3, b.shape[0]), 55)
    report = ad.grad_check(
        lambda: ad.sum_(ad.mul(ad.attention(a, b, *ws.values(), 3, mask), w)),
        {"a": a, "b": b, **ws})
    assert report.passed, report
    assert set(report.per_param) == {"a", "b", "wq", "wk", "wv", "wo"}


def _query_major_attention(a, b, wq, wk, wv, wo, n_heads, mask, g):
    """Reference: `ad.attention` as it was with query-major weights
    [... x h x n x s], the softmax over the last axis. Returns the output
    and the gradients of (a, b, wq, wk, wv, wo) for the output seed g."""
    def split(x):
        return x.reshape(x.shape[:-1] + (n_heads, -1)).swapaxes(-2, -3)

    def merge(x):
        x = x.swapaxes(-2, -3)
        return x.reshape(x.shape[:-2] + (-1,))

    def t(x):
        return x.swapaxes(-1, -2)

    def rows(x):
        return x.reshape(-1, x.shape[-1])

    q, k, v = split(a @ wq), split(b @ wk), split(b @ wv)
    c = 1.0 / np.sqrt(q.shape[-1])
    scores = (q @ t(k)) * c
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    dropped = probs if mask is None else probs * mask
    merged = merge(dropped @ v)
    g_ctx = split(g @ wo.T)
    g_probs = g_ctx @ t(v) if mask is None else (g_ctx @ t(v)) * mask
    g_scores = probs * (g_probs - (g_probs * probs).sum(axis=-1, keepdims=True)) * c
    gq, gk, gv = merge(g_scores @ k), merge(t(g_scores) @ q), merge(t(dropped) @ g_ctx)
    return merged @ wo, (gq @ wq.T, gk @ wk.T + gv @ wv.T, rows(a).T @ rows(gq),
                         rows(b).T @ rows(gk), rows(b).T @ rows(gv), rows(merged).T @ rows(g))


def _attention_against_reference(n, s, batch, self_attention, masked, dtype=np.float64):
    """(op values, reference values) for the output and the six leaf
    gradients, the reference run in float64 on the same inputs; a is b
    gets the sum of the reference's a and b gradients."""
    rng = np.random.default_rng(0)
    width, n_heads = 8, 2
    lead = (3,) if batch else ()
    a = rng.standard_normal(lead + (n, width))
    b = a if self_attention else rng.standard_normal(lead + (s, width))
    ws = [rng.uniform(-0.8, 0.8, (width, width)) for _ in range(4)]
    mask = _mask(lead + (n_heads, n, s), 1) if masked else None
    g = rng.standard_normal(lead + (n, width))
    cast = [x.astype(dtype) for x in (a, b, *ws)]
    leaves = [ad.Tensor(x, requires_grad=True) for x in cast]
    if self_attention:
        leaves[1] = leaves[0]
    out = ad.attention(*leaves, n_heads, None if mask is None else mask.astype(dtype))
    out.backward(g.astype(dtype))
    ref_out, ref_grads = _query_major_attention(*(x.astype(np.float64) for x in cast),
                                                n_heads, mask, g)
    ref_grads = list(ref_grads)
    if self_attention:
        ref_grads[0] = ref_grads[0] + ref_grads.pop(1)
        del leaves[1]
    return [out.values] + [t.grad for t in leaves], [ref_out] + ref_grads


def _rel_err(got, ref):
    """max |got - ref| over max |ref|: error relative to the array's scale
    (a zero reference, such as the query gradients over one key, asks for
    zeros)."""
    scale = max(np.abs(ref).max(), np.finfo(np.float64).tiny)
    return float(np.abs(got.astype(np.float64) - ref).max() / scale)


_KEYS = (1, 2, 20, 40)
_QUERIES = (1, 3, 64, 2048)


@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
@pytest.mark.parametrize("batch", [False, True], ids=["matrix", "batched"])
@pytest.mark.parametrize("n,s,self_attention",
                         [(s, s, True) for s in _KEYS]
                         + [(n, s, False) for s in _KEYS for n in _QUERIES])
def test_attention_matches_query_major_reference(n, s, self_attention, batch, masked):
    # keys-major weights reorder only the sums of the softmax and its VJP
    got, ref = _attention_against_reference(n, s, batch, self_attention, masked)
    for g, r in zip(got, ref):
        assert g.shape == r.shape
        assert _rel_err(g, r) < 1e-12


def test_attention_float32_stays_float32():
    a, b, ws = _attention_inputs(56, np.float32)
    out = ad.attention(a, b, *ws.values(), 2, _mask((2, 3, 5), 57, dtype=np.float32))
    assert out.dtype == np.float32
    ad.sum_(out).backward()
    for t in (a, b, *ws.values()):
        assert t.grad.dtype == np.float32
    # and it computes the float64 reference's values to float32 rounding:
    # within 64 eps of each array's scale (the worst case seen is 22 eps)
    got, ref = _attention_against_reference(64, 20, True, False, True, np.float32)
    for g, r in zip(got, ref):
        assert g.dtype == np.float32
        assert _rel_err(g, r) < 64 * _F32_EPS


def test_attention_mask_entry_is_head_query_key():
    # the mask is drawn (h, n, s): zeroing entry (h, i, j) removes key j from
    # query i's weights in head h alone, so only query i's output moves
    rng = np.random.default_rng(60)
    n, s, width, n_heads = 5, 7, 6, 3
    a, b = rng.standard_normal((n, width)), rng.standard_normal((s, width))
    wq, wk, wv, wo = (rng.uniform(-0.8, 0.8, (width, width)) for _ in range(4))
    h, i, j = 1, 3, 5
    mask = np.ones((n_heads, n, s))
    mask[h, i, j] = 0.0
    plain = ad.attention(a, b, wq, wk, wv, wo, n_heads).values
    masked = ad.attention(a, b, wq, wk, wv, wo, n_heads, mask).values
    others = np.arange(n) != i
    assert masked[others].tobytes() == plain[others].tobytes()
    assert np.abs(masked[i] - plain[i]).max() > 1e-3
    # query i by hand, head by head, with head h's weight on key j removed
    w = width // n_heads
    context = []
    for head in range(n_heads):
        cols = slice(head * w, (head + 1) * w)
        scores = (b @ wk[:, cols]) @ (a[i] @ wq[:, cols]) / np.sqrt(w)
        weights = np.exp(scores - scores.max())
        weights /= weights.sum()
        if head == h:
            weights[j] = 0.0
        context.append(weights @ (b @ wv[:, cols]))
    np.testing.assert_allclose(masked[i], np.concatenate(context) @ wo, rtol=0, atol=1e-12)


def test_attention_backward_twice_uses_each_seed():
    # the op computes its six gradients once per backward pass; a second pass
    # with another seed must not reuse the first pass's gradients
    a, b, ws = _attention_inputs(58)
    out = ad.attention(a, b, *ws.values(), 2)
    seeds = _rand((2, 3, 6), 59)
    grads = []
    for seed in seeds:
        for t in (a, b, *ws.values()):
            t.zero_grad()
        out.backward(seed)
        grads.append([t.grad.copy() for t in (a, b, *ws.values())])
    for seed, got in zip(seeds, grads):
        fresh = ad.attention(a, b, *ws.values(), 2)
        for t in (a, b, *ws.values()):
            t.zero_grad()
        fresh.backward(seed)
        for g, t in zip(got, (a, b, *ws.values())):
            np.testing.assert_array_equal(g, t.grad)


def test_dropout_gradient_with_frozen_mask():
    # FFN dropout scales by a keep mask the caller drew; the mask is no tape node
    x = ad.Tensor(_rand((5, 5), 18), requires_grad=True)
    mask = _mask((5, 5), 99, p=0.4)
    report = ad.grad_check(lambda: ad.sum_(ad.mul(x, mask)), {"x": x})
    assert report.passed
    assert ad.mul(x, mask)._parents == (x,)


# An operand that takes no gradient (a numpy array, a float, a no-grad
# Tensor) is a constant: the op records only its differentiable inputs, each
# with the VJP of its own side.
_CONSTANT_OPERAND_CASES = {
    "mul-array": lambda x, c: ad.mul(x, c(_mask((3, 4), 30, p=0.5))),
    "mul-array-first": lambda x, c: ad.mul(c(_mask((3, 4), 30, p=0.5)), x),
    "add-array": lambda x, c: ad.add(x, c(_rand(4, 31))),
    "add-array-first": lambda x, c: ad.add(c(_rand(4, 31)), x),
    "matmul-array": lambda x, c: ad.matmul(x, c(_rand((4, 2), 32))),
    "matmul-array-first": lambda x, c: ad.matmul(c(_rand((2, 3), 33)), x),
    "layernorm-affine": lambda x, c: ad.layernorm(x, c(_rand(4, 34)), c(_rand(4, 35))),
    "attention-keys-and-weights": lambda x, c: ad.attention(
        x, c(_rand((5, 4), 36)), *(c(_rand((4, 4), s, scale=0.5)) for s in (37, 38, 39, 40)),
        2),
}


@pytest.mark.parametrize("wrap", ["array", "no-grad-tensor"])
@pytest.mark.parametrize("name", sorted(_CONSTANT_OPERAND_CASES))
def test_constants_stay_off_the_tape(name, wrap):
    op = _CONSTANT_OPERAND_CASES[name]
    const = (lambda a: a) if wrap == "array" else ad.Tensor
    x = ad.Tensor(_rand((3, 4), 41), requires_grad=True)
    out = op(x, const)
    assert out._parents == (x,) and len(out._vjps) == 1
    seed = _rand(out.shape, 42)
    out.backward(seed)
    # the one recorded VJP is x's: the gradient equals that of a run in
    # which the constants are differentiable leaves too
    got, x.grad = x.grad, None
    op(x, lambda a: ad.Tensor(a, requires_grad=True)).backward(seed)
    assert got.tobytes() == x.grad.tobytes()


@pytest.mark.parametrize("c", [10.0, 0.53, 1.0 / 3.0])
def test_mul_by_a_float_keeps_numpys_float32_scalar_rule(c):
    # mul casts a Python float to the tensor's dtype, as numpy does for x * c
    x = ad.Tensor(_rand((3, 4), 43).astype(np.float32), requires_grad=True)
    out = ad.mul(x, c)
    seed = _rand((3, 4), 44).astype(np.float32)
    out.backward(seed)
    assert out.values.dtype == x.grad.dtype == np.float32
    assert out.values.tobytes() == (x.values * c).tobytes()
    assert x.grad.tobytes() == (seed * c).tobytes()


def test_attention_all_ones_mask_is_no_mask():
    # a keep mask multiplies exactly, so ones change no bit forward or backward
    a, b, ws = _attention_inputs(19)
    leaves = (a, b, *ws.values())
    grads = []
    for mask in (None, np.ones((2, 3, 5))):
        for t in leaves:
            t.zero_grad()
        out = ad.attention(a, b, *ws.values(), 2, mask)
        ad.sum_(ad.mul(out, out)).backward()
        grads.append([out.values.tobytes()] + [t.grad.tobytes() for t in leaves])
    assert grads[0] == grads[1]


def test_grad_check_linear_is_exact():
    a = _rand((7,), 20)
    theta = ad.Tensor(_rand((7,), 21), requires_grad=True)
    report = ad.grad_check(lambda: ad.sum_(ad.mul(theta, a)), {"theta": theta})
    assert report.max_rel_err < 1e-9


def test_grad_check_detects_corrupted_gradient():
    x = ad.Tensor(_rand((4,), 22), requires_grad=True)

    def f():
        return ad.sum_(ad.mul(ad.mul(x, x), 3.0))

    report = ad.grad_check(f, {"x": x})
    assert report.passed

    # corrupt one coordinate of the analytic gradient by wrapping the op
    class Lying:
        def __call__(self):
            out = f()
            vjps = out._vjps

            def bad_vjp(g, real=vjps[0]):
                full = real(g).copy()
                full.reshape(-1)[0] *= 1.01
                return full

            out._vjps = (bad_vjp,) + vjps[1:]
            return out

    report = ad.grad_check(Lying(), {"x": x})
    assert not report.passed


_BATCH_LABELS = np.array([[2, 0, 1, 1, 0, 2], [0, 0, 1, 2, 2, 1]])


def _tridiagonal_matmul(t, dt):
    mat = sp.csr_matrix(np.eye(5) + np.eye(5, k=1) + np.eye(5, k=-1), dtype=dt) * 0.5
    return ad.const_matmul(mat, t[0], mat_t=mat.T)


# One case per differentiable op: (call on the input tensors and the dtype,
# float64 inputs, tolerance in float32 eps). The tolerance bounds
# max|f32 - f64| / max|f64| over the output and every input gradient; it
# covers the rounding of the inputs to float32 as well as the op's own.
_OP_CASES = {
    "add": (lambda t, dt: ad.add(*t), [_rand((4, 5), 71), _rand(5, 72)], 4),
    "mul": (lambda t, dt: ad.mul(*t), [_rand((4, 5), 73), _rand((4, 1), 74)], 4),
    "mul-by-constant": (lambda t, dt: ad.mul(t[0], _mask((4, 5), 75, dtype=dt)),
                        [_rand((4, 5), 76)], 2),
    "matmul": (lambda t, dt: ad.matmul(*t, transpose_b=True),
               [_rand((4, 6), 77), _rand((5, 6), 78)], 2),
    "const_matmul": (_tridiagonal_matmul, [_rand((5, 3), 79)], 4),
    "concat": (lambda t, dt: ad.concat(t, axis=1), [_rand((3, 2), 80), _rand((3, 4), 81)], 1),
    "slice_cols": (lambda t, dt: ad.slice_cols(t[0], 1, 4), [_rand((3, 6), 82)], 1),
    "take_rows": (lambda t, dt: ad.take_rows(t[0], [0, 0, 2, 4]), [_rand((5, 3), 83)], 2),
    "class_means": (lambda t, dt: ad.class_means(t[0], [2, 0, 1, 1, 0, 2], 3),
                    [_rand((6, 4), 84)], 4),
    "sum_": (lambda t, dt: ad.sum_(t[0], axis=0), [_rand((3, 4), 85)], 4),
    "relu": (lambda t, dt: ad.relu(t[0]), [_rand((4, 5), 86)], 1),
    "log_softmax": (lambda t, dt: ad.log_softmax(t[0]), [_rand((3, 5), 87, scale=3.0)], 4),
    "layernorm": (lambda t, dt: ad.layernorm(*t),
                  [_rand((6, 8), 88), _rand(8, 89), _rand(8, 90)], 4),
    "attention": (lambda t, dt: ad.attention(*t, 2, _mask((2, 3, 5), 91, dtype=dt)),
                  [_rand((3, 6), 92), _rand((5, 6), 93)]
                  + [_rand((6, 6), s, scale=0.5) for s in (94, 95, 96, 97)], 8),
    "normalize_rows": (lambda t, dt: ad.normalize_rows(t[0], 1e-12), [_rand((4, 5), 98)], 4),
    # the same ops on a leading batch axis, as a training step runs them
    "matmul-shared-weight": (lambda t, dt: ad.matmul(*t),
                             [_rand((2, 4, 6), 102), _rand((6, 5), 103)], 2),
    "take_rows-batched": (lambda t, dt: ad.take_rows(t[0], [[0, 0, 2], [3, 1, 1]]),
                          [_rand((2, 4, 3), 104)], 2),
    "class_means-batched": (lambda t, dt: ad.class_means(t[0], _BATCH_LABELS, 3),
                            [_rand((2, 6, 4), 105)], 4),
    "attention-batched": (lambda t, dt: ad.attention(t[0], t[0], *t[1:], 2,
                                                     _mask((3, 2, 4, 4), 106, dtype=dt)),
                          [_rand((3, 4, 6), 107)]
                          + [_rand((6, 6), s, scale=0.5) for s in (108, 109, 110, 111)], 8),
    "matmul-batched": (lambda t, dt: ad.matmul(*t, transpose_b=True),
                       [_rand((2, 4, 5), 112), _rand((2, 3, 5), 113)], 2),
}


def test_every_differentiable_op_has_a_float32_case():
    harness = {"grad_check"}
    # a key "op-variant" is a further case of op
    assert ({n for n in ad.__all__ if n[0].islower()} - harness
            == {key.partition("-")[0] for key in _OP_CASES})


@pytest.mark.parametrize("name", sorted(_OP_CASES))
def test_float32_agrees_with_float64(name):
    call, arrays, tol = _OP_CASES[name]
    results = {}
    for dtype in (np.float64, np.float32):
        leaves = [ad.Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
        out = call(leaves, dtype)
        out.backward(_rand(out.shape, 101).astype(dtype))
        results[dtype] = [out.values] + [t.grad for t in leaves]
    for i, (lo, hi) in enumerate(zip(results[np.float32], results[np.float64])):
        assert lo.dtype == np.float32, i
        err = np.max(np.abs(lo - hi)) / np.max(np.abs(hi))
        assert err <= tol * _F32_EPS, f"{name} [{i}]: {err / _F32_EPS:.2f} eps"


def test_required_ops_are_exposed():
    # every op the pipeline calls is exported, and every exported op has a
    # caller in the pipeline: a fused op replaces its parts, it does not
    # sit next to them
    src = Path(ad.__file__).parent
    used = set()
    for path in src.glob("*.py"):
        if path.name != "autodiff.py":
            used |= set(re.findall(r"\bad\.([a-z_]+)\(", path.read_text()))
    harness = {"grad_check", "global_grad_norm"}
    for name in used:
        assert name in ad.__all__ or name in harness, name
        assert callable(getattr(ad, name))
    ops = {n for n in ad.__all__ if n[0].islower()} - harness
    assert ops <= used, sorted(ops - used)


def test_ops_draw_no_random_numbers():
    # every dropout mask is drawn in model.py and handed in, so each op is a
    # pure function of its inputs; only grad_check samples coordinates
    takes_rng = [n for n in ad.__all__ if n != "grad_check"
                 and "rng" in inspect.signature(getattr(ad, n)).parameters]
    assert takes_rng == []
    assert ".random(" not in Path(ad.__file__).read_text()


def test_determinism_same_seed_same_loss():
    def run():
        rng = np.random.default_rng(7)
        x = ad.Tensor(rng.standard_normal((16, 8)), requires_grad=True)
        h = _ln(ad.matmul(x, ad.Tensor(rng.standard_normal((8, 8)))))
        h = ad.mul(h, _mask(h.shape, 3, p=0.2))
        loss = ad.mul(ad.sum_(ad.mul(h, h)), 1.0 / h.values.size)
        loss.backward()
        return float(loss.values), x.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    np.testing.assert_array_equal(g1, g2)


def _backward_keeping_grads(root):
    """Tensor.backward's replay without freeing: every node keeps its grad."""
    root.grad = np.ones_like(root.values)
    for node in reversed(ad._topo_order(root)):
        if node.grad is None:
            continue
        for parent, vjp in zip(node._parents, node._vjps):
            pg = vjp(node.grad)
            parent.grad = pg if parent.grad is None else parent.grad + pg


class TestBackwardFreesIntermediateGrads:
    @staticmethod
    def tape():
        """A small model-shaped tape: x and the weights are leaves, and the
        propagated `h` feeds attention, the residual add and the loss."""
        leaves = {name: ad.Tensor(_rand(shape, seed), requires_grad=True)
                  for name, shape, seed in (("x", (5, 4), 40), ("w1", (4, 4), 41),
                                            ("wq", (4, 4), 42), ("wk", (4, 4), 43),
                                            ("wv", (4, 4), 44), ("wo", (4, 4), 45))}
        adj = sp.csr_matrix(np.eye(5) + np.eye(5, k=1) + np.eye(5, k=-1))
        h = _ln(ad.const_matmul(adj, ad.matmul(leaves["x"], leaves["w1"]), mat_t=adj))
        att = ad.attention(h, h, leaves["wq"], leaves["wk"], leaves["wv"], leaves["wo"],
                           2, _mask((2, 5, 5), 5, p=0.2))
        out = ad.mul(ad.add(h, att), _mask((5, 4), 6, p=0.1))
        return ad.sum_(ad.mul(out, out)), leaves

    def test_only_leaves_keep_gradients(self):
        loss, leaves = self.tape()
        loss.backward()
        nodes = ad._topo_order(loss)
        assert all(n.grad is None for n in nodes if n._parents)
        assert all(leaves[name].grad is not None for name in leaves)

    def test_leaf_gradients_match_a_replay_that_keeps_every_grad(self):
        loss, leaves = self.tape()
        loss.backward()
        kept_loss, kept = self.tape()
        _backward_keeping_grads(kept_loss)
        assert any(n.grad is not None for n in ad._topo_order(kept_loss) if n._parents)
        for name, leaf in leaves.items():
            assert leaf.grad.tobytes() == kept[name].grad.tobytes(), name

    def test_tensor_used_twice_accumulates_both_uses(self):
        x = ad.Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        y = ad.mul(x, 3.0)  # an intermediate read by two consumers
        loss = ad.sum_(ad.add(ad.mul(y, x), ad.mul(y, 2.0)))
        loss.backward()
        # loss = 3x^2 + 6x, so dloss/dx = 6x + 6 through both uses of x and y
        np.testing.assert_array_equal(x.grad, 6.0 * x.values + 6.0)
        assert y.grad is None and loss.grad is None
