"""Two-stage in-context transformer over support and query tokens.

Each layer runs the same attention machinery twice. Stage one lets support
tokens attend to each other, so label information spreads across the
support set. Stage two lets every query token attend to the *updated*
support tokens with the same attention weights; queries never see other
queries or themselves, which makes each query's output independent of
whatever batch it happens to share. A single shared feed-forward block
then updates both streams. Residual connections wrap every sublayer and
normalization sits inside the residual branch (pre-LN).

The cross-attention weight sharing can be switched off per layer for
ablation runs, which doubles the attention parameter count.
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


def _mha(a, b, wq, wk, wv, wo, n_heads: int, dropout: float, rng):
    """Attention of rows of `a` over rows of `b`; returns [rows(a) x m]."""
    hw = a.values.shape[1] // n_heads
    q = ad.split_heads(ad.matmul(a, wq), n_heads)
    k = ad.split_heads(ad.matmul(b, wk), n_heads)
    v = ad.split_heads(ad.matmul(b, wv), n_heads)
    scores = ad.matmul(q, k, transpose_b=True)
    probs = ad.softmax(ad.scale(scores, 1.0 / np.sqrt(hw)))
    if dropout > 0.0:
        probs = ad.dropout(probs, dropout, rng)
    return ad.matmul(ad.merge_heads(ad.matmul(probs, v)), wo)


def _ffn(x, w1, b1, w2, b2, dropout: float, rng):
    hidden = ad.relu(ad.add(ad.matmul(x, w1), b1))
    if dropout > 0.0:
        hidden = ad.dropout(hidden, dropout, rng)
    return ad.add(ad.matmul(hidden, w2), b2)


def transformer_forward(t_support: ad.Tensor, t_query: ad.Tensor,
                        params: dict[str, ad.Tensor], n_layers: int,
                        n_heads: int, dropout: float = 0.0, rng=None,
                        unshared: bool = False):
    """Run the stack; n_layers=0 passes both streams through unchanged."""
    if dropout > 0.0 and rng is None:
        raise ValueError("dropout requires an rng")
    ts, tq = t_support, t_query
    for i in range(n_layers):
        p = lambda name: params[f"tf{i}_{name}"]  # noqa: E731
        ln1_g, ln1_b = p("ln1_gamma"), p("ln1_beta")
        attn = (p("wq"), p("wk"), p("wv"), p("wo"))
        cross = attn
        if unshared:
            cross = (p("wq2"), p("wk2"), p("wv2"), p("wo2"))

        a = ad.layernorm(ts, ln1_g, ln1_b)
        ts = ad.add(ts, _mha(a, a, *attn, n_heads=n_heads, dropout=dropout, rng=rng))
        # stage two reads the *updated* support, re-normalized
        tq = ad.add(tq, _mha(ad.layernorm(tq, ln1_g, ln1_b),
                             ad.layernorm(ts, ln1_g, ln1_b),
                             *cross, n_heads=n_heads, dropout=dropout, rng=rng))

        ffn = (p("ffn_w1"), p("ffn_b1"), p("ffn_w2"), p("ffn_b2"))
        ln2_g, ln2_b = p("ln2_gamma"), p("ln2_beta")
        ts = ad.add(ts, _ffn(ad.layernorm(ts, ln2_g, ln2_b), *ffn,
                             dropout=dropout, rng=rng))
        tq = ad.add(tq, _ffn(ad.layernorm(tq, ln2_g, ln2_b), *ffn,
                             dropout=dropout, rng=rng))
    return ts, tq
