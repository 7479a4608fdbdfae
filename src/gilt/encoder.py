"""Structural encoder: symmetric-normalized propagation with LayerNorm.

The encoder is deliberately weight-light. Each layer multiplies by the
self-loop-augmented, symmetrically normalized adjacency and re-normalizes
rows with LayerNorm; the only learnable pieces are the per-layer affine
(gamma, beta) pairs. There is no nonlinearity and no per-layer weight
matrix in the default variant, so representations stay in the span of the
propagated inputs and depth controls the receptive field alone.

A "nonlinear" variant (identity-initialized square weight plus ReLU ahead
of the LayerNorm) exists for ablation studies.

The per-hop LayerNorm, over every row a hop computes, is the
encoder's dominant cost: forward plus backward it takes at least as long as
the sparse propagation it follows, even as the one-pass op that
`autodiff.layernorm` is (BLAS row means, einsum row dots, an in-place
backward).

The normalized adjacency is exactly symmetric, bit for bit: each entry is
computed from its (lower, higher) endpoint order and each row's column
indices are sorted, so `adj @ g` equals `adj.T @ g` to the last bit. The
backward of every propagation hop therefore multiplies by `adj` itself and
never builds its transpose.

A caller that reads only some rows of the output passes them as `rows`, and
each hop then computes just the rows later hops need (the minibatch
computation graph of GraphSAGE, Hamilton et al. 2017, without sampling).
Working back from the last hop, a hop's input rows are its output rows'
neighbours, self-loops included. A hop whose output rows are at most half
the graph runs on `adj[rows]`, its columns renumbered into the rows the
hop before it kept, and its backward multiplies by the CSC view of that
slice: the same arrays read as its transpose, so nothing is built and each
gradient row sums its terms in the same neighbour order as `adj @ g`. A
hop over half the graph runs on `adj`, as does every hop before it, since
slicing costs more than it saves there.
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


def _hops(adj: sp.csr_matrix, rows, n_layers: int):
    """Per hop, first hop first, its forward and backward matrices, plus the
    input rows the first hop reads (None: every row).

    Worked back from the last hop, whose output rows are `rows`: the columns
    a hop's row slice touches are the rows the hop before it must output.
    """
    n = adj.shape[0]

    def kept(r):
        return None if r is None or 2 * len(r) > n else r

    rows, hops = kept(rows), []
    for _ in range(n_layers):
        if rows is None:
            hops.append((adj, adj))
            continue
        sub = adj[rows]
        read = np.zeros(n, dtype=bool)
        read[sub.indices] = True
        rows = kept(np.flatnonzero(read))
        if rows is not None:
            sub = sp.csr_matrix((sub.data, np.searchsorted(rows, sub.indices), sub.indptr),
                                shape=(sub.shape[0], len(rows)))
        hops.append((sub, sp.csc_matrix((sub.data, sub.indices, sub.indptr),
                                        shape=sub.shape[::-1])))
    return hops[::-1], rows


def encode(adj: sp.spmatrix, x, params: dict[str, ad.Tensor],
           n_layers: int, variant: str = "linear", rows=None,
           proj_w: ad.Tensor | None = None) -> ad.Tensor:
    """Run the propagation stack over x, projected by `proj_w` if given (the
    learnable-projection align mode); n_layers=0 returns that input.

    `adj` must be exactly symmetric, as `normalize_adjacency` builds it.
    With `rows`, sorted unique node ids, the output holds just those rows,
    in order, if they are at most half the graph, and every row otherwise;
    only the rows of x the first hop reads are projected.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown encoder variant {variant!r}")
    hops, x_rows = _hops(adj, rows, n_layers)
    h = x if isinstance(x, ad.Tensor) else ad.Tensor(np.asarray(x))
    if x_rows is not None:
        h = ad.take_rows(h, x_rows)
    if proj_w is not None:
        h = ad.matmul(h, proj_w)
    for i, (mat, mat_t) in enumerate(hops):
        h = ad.const_matmul(mat, h, mat_t=mat_t)
        if variant == "nonlinear":
            h = ad.relu(ad.matmul(h, params[f"enc_w{i}"]))
        h = ad.layernorm(h, params[f"enc_ln{i}_gamma"], params[f"enc_ln{i}_beta"])
    return h
