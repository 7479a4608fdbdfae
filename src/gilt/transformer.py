"""Two-stage in-context transformer over support and query tokens.

Each layer runs one fused attention op (`autodiff.attention`) twice. Stage
one lets support tokens attend to each other, so label information spreads
across the support set. Stage two lets every query token attend to the
*updated* support tokens with the same attention weights; queries never see
other queries or themselves, which makes each query's output independent of
whatever batch it happens to share. One shared feed-forward block then
updates both streams in a single pass over their stacked rows, since it maps
each row on its own. Residual connections wrap every sublayer and
normalization sits inside the residual branch (pre-LN).

The cross-attention weight sharing can be switched off per layer for
ablation runs, which doubles the attention parameter count.

Both streams may carry leading axes: training runs a level's batch of
episodes as support tokens [B x S x 2d] and query tokens [B x Qmax x 2d],
and every op attends, normalizes or maps within one batch element. A query
row past an episode's own query count is padding. No query reads another
query and the FFN and LayerNorm are row-wise, so in exact arithmetic a pad
row changes no real row. LayerNorm's reductions are row-local in floating
point as well, but the weight products are BLAS GEMMs, which may round a row
differently when the row count changes, so a pad row can still move a real
row's last bits.

The attention op holds its weights keys-major, [... x heads x S x Q]: a
support set has 10-40 tokens while a stage-two query stream may have
thousands, so the softmax and its backward reduce over runs of queries
rather than over a handful of keys.

Dropout arrives as keep masks from their single draw site, `model.py`, one
(stage-one, stage-two, FFN) tuple per layer in draw order; nothing here reads an rng.
An attention mask keeps its query-major (heads x Q x S) shape and draw order;
the op reads it transposed.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad


def transformer_init(d: int, n_layers: int, n_heads: int, ffn_hidden: int,
                     unshared: bool = False, seed: int = 0,
                     dtype=np.float64) -> dict[str, np.ndarray]:
    """Fresh parameters; token width is 2d and must split evenly over heads."""
    m = 2 * d
    if m % n_heads != 0:
        raise ValueError(f"token width {m} not divisible by {n_heads} heads")
    rng = np.random.default_rng(seed)

    def uniform(fan_in, shape):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape).astype(dtype)

    params: dict[str, np.ndarray] = {}
    for i in range(n_layers):
        names = ("wq", "wk", "wv", "wo")
        if unshared:
            names = names + ("wq2", "wk2", "wv2", "wo2")
        for w in names:
            # query projections start at zero: attention is then uniform, so
            # a fresh model writes the same vector into every query token and
            # predicts at exactly chance level until it has learned content-
            # dependent routing; all projections still receive gradient
            if w.startswith("wq"):
                params[f"tf{i}_{w}"] = np.zeros((m, m), dtype=dtype)
            else:
                params[f"tf{i}_{w}"] = uniform(m, (m, m))
        params[f"tf{i}_ffn_w1"] = uniform(m, (m, ffn_hidden))
        params[f"tf{i}_ffn_b1"] = np.zeros(ffn_hidden, dtype=dtype)
        # silent FFN at init for the same reason: its input is per-token
        params[f"tf{i}_ffn_w2"] = np.zeros((ffn_hidden, m), dtype=dtype)
        params[f"tf{i}_ffn_b2"] = np.zeros(m, dtype=dtype)
        for ln in ("ln1", "ln2"):
            params[f"tf{i}_{ln}_gamma"] = np.ones(m, dtype=dtype)
            params[f"tf{i}_{ln}_beta"] = np.zeros(m, dtype=dtype)
    return params


def transformer_forward(t_support: ad.Tensor, t_query: ad.Tensor,
                        params: dict[str, ad.Tensor], n_layers: int,
                        n_heads: int, masks=None, unshared: bool = False):
    """Run the stack on [... x S x 2d] support and [... x Q x 2d] query
    tokens; n_layers=0 passes both streams through unchanged. `masks` is None
    (no dropout) or one (stage-one, stage-two, FFN) tuple per layer."""
    ts, tq = t_support, t_query
    n_s = ts.shape[-2]
    for i in range(n_layers):
        p = lambda name: params[f"tf{i}_{name}"]  # noqa: E731
        m1, m2, m3 = masks[i] if masks is not None else (None, None, None)
        ln1 = (p("ln1_gamma"), p("ln1_beta"))
        attn = (p("wq"), p("wk"), p("wv"), p("wo"))
        cross = (p("wq2"), p("wk2"), p("wv2"), p("wo2")) if unshared else attn

        a = ad.layernorm(ts, *ln1)
        ts = ad.add(ts, ad.attention(a, a, *attn, n_heads, m1))
        # stage two reads the *updated* support, re-normalized
        tq = ad.add(tq, ad.attention(ad.layernorm(tq, *ln1), ad.layernorm(ts, *ln1),
                                     *cross, n_heads, m2))

        # the FFN maps each row on its own, so one pass serves both streams
        x = ad.concat([ts, tq], axis=-2)
        hidden = ad.relu(ad.add(ad.matmul(ad.layernorm(x, p("ln2_gamma"), p("ln2_beta")),
                                          p("ffn_w1")), p("ffn_b1")))
        if m3 is not None:
            hidden = ad.mul(hidden, m3)
        x = ad.add(x, ad.add(ad.matmul(hidden, p("ffn_w2")), p("ffn_b2")))
        ts, tq = ad.take_rows(x, slice(0, n_s)), ad.take_rows(x, slice(n_s, None))
    return ts, tq
