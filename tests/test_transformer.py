import numpy as np
import pytest

from gilt import autodiff as ad
from gilt.model import ModelConfig, _transformer_masks
from gilt.transformer import transformer_forward, transformer_init


def as_tensors(arrays):
    return {k: ad.Tensor(v, requires_grad=True) for k, v in arrays.items()}


def densify(arrays, seed=99):
    # fill the deliberately zero-initialized projections so structural tests
    # exercise every path, not the fresh-init identity-ish regime
    rng = np.random.default_rng(seed)
    for k, v in arrays.items():
        if not v.any():
            arrays[k] = rng.uniform(-0.5, 0.5, size=v.shape)
    return arrays


def make_inputs(S=8, Q=5, d=3, seed=0):
    rng = np.random.default_rng(seed)
    ts = ad.Tensor(rng.standard_normal((S, 2 * d)))
    tq = ad.Tensor(rng.standard_normal((Q, 2 * d)))
    return ts, tq


def reference_layer(ts, tq, p, n_heads=1, dropout=0.0, rng=None):
    """Independent numpy spelling of one layer: a loop over heads, each head
    drawing its own attention-dropout mask in turn, then the FFN masks."""
    def ln(x, g, b):
        mu = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        return (x - mu) / np.sqrt(np.maximum(var, ad.LAYERNORM_EPS)) * g + b

    def softmax(z):
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    def drop(x):
        if dropout == 0.0:
            return x
        return x * (rng.random(x.shape) >= dropout) * (1.0 / (1.0 - dropout))

    def attend(src, ctx):
        q = src @ p["tf0_wq"]
        k = ctx @ p["tf0_wk"]
        v = ctx @ p["tf0_wv"]
        hw = q.shape[1] // n_heads
        heads = []
        for h in range(n_heads):
            cols = slice(h * hw, (h + 1) * hw)
            probs = drop(softmax(q[:, cols] @ k[:, cols].T / np.sqrt(hw)))
            heads.append(probs @ v[:, cols])
        return np.concatenate(heads, axis=1) @ p["tf0_wo"]

    g1, b1 = p["tf0_ln1_gamma"], p["tf0_ln1_beta"]
    ts = ts + attend(ln(ts, g1, b1), ln(ts, g1, b1))
    tq = tq + attend(ln(tq, g1, b1), ln(ts, g1, b1))

    def ffn(x):
        h = drop(np.maximum(ln(x, p["tf0_ln2_gamma"], p["tf0_ln2_beta"]) @ p["tf0_ffn_w1"]
                            + p["tf0_ffn_b1"], 0.0))
        return h @ p["tf0_ffn_w2"] + p["tf0_ffn_b2"]

    return ts + ffn(ts), tq + ffn(tq)


class TestArchitecture:
    def test_shapes_preserved(self):
        ts, tq = make_inputs()
        params = as_tensors(transformer_init(3, 2, 2, 16, seed=1))
        s, q = transformer_forward(ts, tq, params, 2, 2)
        assert s.values.shape == ts.values.shape
        assert q.values.shape == tq.values.shape

    def test_zero_layers_identity(self):
        ts, tq = make_inputs()
        s, q = transformer_forward(ts, tq, {}, 0, 2)
        assert s.values.tobytes() == ts.values.tobytes()
        assert q.values.tobytes() == tq.values.tobytes()

    def test_matches_numpy_reference(self):
        # pins the wiring: pre-LN residuals, stage two reading the updated
        # support with shared weights, one FFN applied to both streams
        ts, tq = make_inputs(S=6, Q=4, d=2, seed=3)
        arrays = densify(transformer_init(2, 1, 1, 8, seed=4))
        s, q = transformer_forward(ts, tq, as_tensors(arrays), 1, 1)
        ref_s, ref_q = reference_layer(ts.values, tq.values, arrays)
        assert np.max(np.abs(s.values - ref_s)) < 1e-12
        assert np.max(np.abs(q.values - ref_q)) < 1e-12

    def test_batched_heads_match_per_head_reference(self):
        # heads run as one batched op; the reference loops over column blocks
        # and draws each head's dropout mask in turn from the same generator,
        # so the model's masks must come in the reference's draw order
        ts, tq = make_inputs(S=6, Q=4, d=3, seed=23)
        arrays = densify(transformer_init(3, 1, 3, 8, seed=24))
        for dropout in (0.0, 0.3):
            cfg = ModelConfig(d=3, transformer_layers=1, n_heads=3, ffn_hidden=8,
                              dropout=dropout)
            masks = _transformer_masks(np.random.default_rng(25), cfg, 6, 4) if dropout else None
            s, q = transformer_forward(ts, tq, as_tensors(arrays), 1, 3, masks)
            ref_s, ref_q = reference_layer(ts.values, tq.values, arrays, n_heads=3,
                                           dropout=dropout, rng=np.random.default_rng(25))
            assert np.max(np.abs(s.values - ref_s)) < 1e-12
            assert np.max(np.abs(q.values - ref_q)) < 1e-12

    def test_width_must_split_over_heads(self):
        with pytest.raises(ValueError, match="divisible"):
            transformer_init(3, 1, 4, 8)

    def test_fresh_init_writes_the_same_vector_to_every_query(self):
        # zero query projections make attention uniform and the FFN silent,
        # so an untrained model cannot tell queries apart
        ts, tq = make_inputs(S=6, Q=5, d=3, seed=30)
        params = as_tensors(transformer_init(3, 2, 2, 16, seed=31))
        _, q = transformer_forward(ts, tq, params, 2, 2)
        writes = q.values - tq.values
        assert np.max(np.abs(writes - writes[0])) < 1e-12
        assert np.any(writes[0] != 0.0)


class TestQueryIsolation:
    def test_query_output_independent_of_batch(self):
        # each query row must come out the same whether it runs alone or
        # alongside any other queries
        ts, tq = make_inputs(S=7, Q=6, d=3, seed=5)
        params = as_tensors(densify(transformer_init(3, 2, 3, 12, seed=6)))
        _, full = transformer_forward(ts, tq, params, 2, 3)
        for j in range(6):
            alone = ad.Tensor(tq.values[j:j + 1])
            _, one = transformer_forward(ts, alone, params, 2, 3)
            assert np.max(np.abs(one.values[0] - full.values[j])) < 1e-10

    def test_support_permutation_leaves_queries_invariant(self):
        ts, tq = make_inputs(S=8, Q=5, d=3, seed=7)
        params = as_tensors(densify(transformer_init(3, 2, 2, 12, seed=8)))
        _, base = transformer_forward(ts, tq, params, 2, 2)
        perm = np.random.default_rng(9).permutation(8)
        _, shuffled = transformer_forward(ad.Tensor(ts.values[perm]), tq, params, 2, 2)
        assert np.max(np.abs(base.values - shuffled.values)) < 1e-8

    def test_support_outputs_equivariant(self):
        ts, tq = make_inputs(S=6, Q=2, d=2, seed=10)
        params = as_tensors(densify(transformer_init(2, 1, 2, 8, seed=11)))
        s, _ = transformer_forward(ts, tq, params, 1, 2)
        perm = np.array([3, 1, 5, 0, 2, 4])
        s_perm, _ = transformer_forward(ad.Tensor(ts.values[perm]), tq, params, 1, 2)
        assert np.max(np.abs(s_perm.values - s.values[perm])) < 1e-8


class TestWeightSharing:
    def test_unshared_params_exist(self):
        arrays = transformer_init(2, 2, 2, 8, unshared=True)
        assert "tf0_wq2" in arrays and "tf1_wo2" in arrays

    def test_unshared_with_copied_weights_matches_shared(self):
        ts, tq = make_inputs(S=5, Q=3, d=2, seed=12)
        shared = densify(transformer_init(2, 1, 2, 8, seed=13))
        unshared = transformer_init(2, 1, 2, 8, unshared=True, seed=13)
        for w in ("wq", "wk", "wv", "wo"):
            unshared[f"tf0_{w}"] = shared[f"tf0_{w}"].copy()
            unshared[f"tf0_{w}2"] = shared[f"tf0_{w}"].copy()
        for k in shared:
            if "ffn" in k or "ln" in k:
                unshared[k] = shared[k].copy()
        _, q_shared = transformer_forward(ts, tq, as_tensors(shared), 1, 2)
        _, q_unshared = transformer_forward(ts, tq, as_tensors(unshared), 1, 2,
                                            unshared=True)
        assert np.array_equal(q_shared.values, q_unshared.values)

    def test_unshared_cross_weights_change_queries_only(self):
        ts, tq = make_inputs(S=5, Q=3, d=2, seed=14)
        arrays = densify(transformer_init(2, 1, 2, 8, unshared=True, seed=15))
        s1, q1 = transformer_forward(ts, tq, as_tensors(arrays), 1, 2, unshared=True)
        arrays["tf0_wv2"] = arrays["tf0_wv2"] + 0.5
        s2, q2 = transformer_forward(ts, tq, as_tensors(arrays), 1, 2, unshared=True)
        assert np.array_equal(s1.values, s2.values)
        assert not np.array_equal(q1.values, q2.values)


class TestGradientsAndDropout:
    def test_grad_check_full_layer(self):
        ts, tq = make_inputs(S=4, Q=3, d=2, seed=16)
        params = as_tensors(densify(transformer_init(2, 1, 2, 6, seed=17)))
        rng = np.random.default_rng(18)
        w_s = rng.standard_normal((4, 4))
        w_q = rng.standard_normal((3, 4))

        def loss():
            s, q = transformer_forward(ts, tq, params, 1, 2)
            return ad.add(ad.sum_(ad.mul(s, w_s)), ad.sum_(ad.mul(q, w_q)))

        report = ad.grad_check(loss, params, tol=1e-4, max_coords_per_param=6,
                               rng=np.random.default_rng(19))
        assert report.passed, report

    def test_dropout_changes_with_the_masks_only(self):
        # the forward is a pure function of its masks: new masks change the
        # output, the same masks replay it bit for bit
        ts, tq = make_inputs()
        params = as_tensors(densify(transformer_init(3, 1, 2, 8, seed=20)))
        cfg = ModelConfig(d=3, transformer_layers=1, n_heads=2, ffn_hidden=8, dropout=0.5)
        rng = np.random.default_rng(21)
        first, second = (_transformer_masks(rng, cfg, 8, 5) for _ in range(2))
        _, a = transformer_forward(ts, tq, params, 1, 2, first)
        _, b = transformer_forward(ts, tq, params, 1, 2, second)
        _, again = transformer_forward(ts, tq, params, 1, 2, first)
        assert not np.array_equal(a.values, b.values)
        assert a.values.tobytes() == again.values.tobytes()

    def test_no_dropout_deterministic(self):
        ts, tq = make_inputs()
        params = as_tensors(transformer_init(3, 1, 2, 8, seed=22))
        _, a = transformer_forward(ts, tq, params, 1, 2)
        _, b = transformer_forward(ts, tq, params, 1, 2)
        assert a.values.tobytes() == b.values.tobytes()
