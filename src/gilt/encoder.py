"""Structural encoder: symmetric-normalized propagation with LayerNorm.

The encoder is deliberately weight-light. Each layer multiplies by the
self-loop-augmented, symmetrically normalized adjacency and re-normalizes
rows with LayerNorm; the only learnable pieces are the per-layer affine
(gamma, beta) pairs. There is no nonlinearity and no per-layer weight
matrix in the default variant, so representations stay in the span of the
propagated inputs and depth controls the receptive field alone.

A "nonlinear" variant (identity-initialized square weight plus ReLU ahead
of the LayerNorm) exists for ablation studies.

The per-hop LayerNorm, over every node row of every encoded graph, is the
encoder's dominant cost: forward plus backward it takes at least as long as
the sparse propagation it follows, even as the one-pass op that
`autodiff.layernorm` is (BLAS row means, einsum row dots, an in-place
backward).

The normalized adjacency is exactly symmetric, bit for bit: each entry is
computed from its (lower, higher) endpoint order and each row's column
indices are sorted, so `adj @ g` equals `adj.T @ g` to the last bit. The
backward of every propagation hop therefore multiplies by `adj` itself and
never builds its transpose.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad

VARIANTS = ("linear", "nonlinear")


def normalize_adjacency(node_count: int, edges: np.ndarray) -> sp.csr_matrix:
    """D^{-1/2} (A + I) D^{-1/2} as CSR; isolated nodes keep a unit self-loop.

    Built straight from the edge list, as the GCN normalization's edge form
    (`deg^-1/2[row] * w * deg^-1/2[col]`): both directions of every edge plus
    the self-loops, with repeated entries summed. An entry's product runs in
    the order `D @ A @ D` gives it, from the lower endpoint to the higher.
    """
    n = int(node_count)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    loops = np.arange(n, dtype=np.int64)
    rows = np.concatenate([edges[:, 0], edges[:, 1], loops])
    cols = np.concatenate([edges[:, 1], edges[:, 0], loops])
    keys, counts = np.unique(rows * n + cols, return_counts=True)
    r, c = np.divmod(keys, n)
    # degree includes the self-loop, so it is always >= 1
    d_inv_sqrt = 1.0 / np.sqrt(np.bincount(r, weights=counts, minlength=n))
    data = (d_inv_sqrt[np.minimum(r, c)] * counts) * d_inv_sqrt[np.maximum(r, c)]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(r, minlength=n), out=indptr[1:])
    return sp.csr_matrix((data, c, indptr), shape=(n, n))


def encoder_init(d: int, n_layers: int, variant: str = "linear",
                 dtype=np.float64) -> dict[str, np.ndarray]:
    """Fresh encoder parameters as named arrays (affines, plus W for nonlinear)."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown encoder variant {variant!r}")
    params: dict[str, np.ndarray] = {}
    for i in range(n_layers):
        params[f"enc_ln{i}_gamma"] = np.ones(d, dtype=dtype)
        params[f"enc_ln{i}_beta"] = np.zeros(d, dtype=dtype)
        if variant == "nonlinear":
            params[f"enc_w{i}"] = np.eye(d, dtype=dtype)
    return params


def encode(adj: sp.spmatrix, x, params: dict[str, ad.Tensor],
           n_layers: int, variant: str = "linear") -> ad.Tensor:
    """Run the propagation stack; n_layers=0 returns the input unchanged.

    `adj` must be exactly symmetric, as `normalize_adjacency` builds it.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown encoder variant {variant!r}")
    h = x if isinstance(x, ad.Tensor) else ad.Tensor(np.asarray(x))
    for i in range(n_layers):
        h = ad.const_matmul(adj, h, mat_t=adj)
        if variant == "nonlinear":
            h = ad.relu(ad.matmul(h, params[f"enc_w{i}"]))
        h = ad.layernorm(h, params[f"enc_ln{i}_gamma"], params[f"enc_ln{i}_beta"])
    return h
