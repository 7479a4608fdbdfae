"""Token construction: turning episode items into transformer inputs.

An item representation is read off the encoder output: a node keeps its
row, a candidate link takes the elementwise product of its endpoint rows,
a whole graph mean-pools its rows. A graph episode pools all its graphs at
once: their encoder rows are stacked and one segment mean gives one row per
graph. Items are gathered by refs into those rows, so a refs array with a
leading batch axis gathers a whole batch of episodes at once.

Tokens are asymmetric. A support token concatenates the item with the
L2-normalized mean of its class's support representations (the class
prototype, from `class_prototypes`, which the head reuses after the
transformer); a query token concatenates the item with zeros, so nothing
about its label can leak in. Both are 2d wide.

TokenSet is the file-backed form: one episode's token rows plus its header,
written as float32 rows in the checkpoints' self-checking array format
(arrayfile).
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .arrayfile import read_arrays, write_arrays

MAGIC = b"GTOK"
PROTO_NORM_FLOOR = 1e-12


def item_repr(h: ad.Tensor, level: str, refs: np.ndarray) -> ad.Tensor:
    """Items at `refs` into the rows of h: a node or graph keeps its row, a
    link (refs [..., 2]) takes the product of its endpoint rows."""
    refs = np.asarray(refs, dtype=np.int64)
    if level == "link":
        return ad.mul(ad.take_rows(h, refs[..., 0]), ad.take_rows(h, refs[..., 1]))
    if level in ("node", "graph"):
        return ad.take_rows(h, refs)
    raise ValueError(f"item_repr handles node/link/graph; got {level!r}")


def mean_pool(h: ad.Tensor, sizes) -> ad.Tensor:
    """Whole-graph representations: one mean row per graph, [len(sizes) x d].

    `h` stacks the node rows of consecutive graphs, `sizes[i]` rows for graph
    i. The segment mean is one `const_matmul` by a sparse averaging matrix;
    the same three arrays read as CSC are its transpose, so the backward
    builds none.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    n_graphs, n_rows = sizes.size, int(sizes.sum())
    arrays = (np.repeat(1.0 / sizes, sizes).astype(h.values.dtype),  # weights
              np.arange(n_rows),                                    # row of h
              np.concatenate([[0], np.cumsum(sizes)]))              # graph starts
    pool = sp.csr_matrix(arrays, shape=(n_graphs, n_rows))
    return ad.const_matmul(pool, h, mat_t=sp.csc_matrix(arrays, shape=(n_rows, n_graphs)))


def class_prototypes(reprs: ad.Tensor, labels: np.ndarray, n_way: int) -> ad.Tensor:
    """[... x n_way x d] L2-normalized class means; a zero mean stays a zero row."""
    return ad.normalize_rows(ad.class_means(reprs, labels, n_way), PROTO_NORM_FLOOR)


def build_tokens(support: ad.Tensor, support_labels: np.ndarray,
                 query: ad.Tensor, n_way: int) -> tuple[ad.Tensor, ad.Tensor]:
    """Assemble [... x S x 2d] support and [... x Q x 2d] query tokens from
    items [... x S x d] and [... x Q x d], with labels [... x S]."""
    labels = np.asarray(support_labels, dtype=np.int64)
    protos = class_prototypes(support, labels, n_way)
    t_support = ad.concat([support, ad.take_rows(protos, labels)], axis=-1)
    zeros = ad.Tensor(np.zeros_like(query.values))
    t_query = ad.concat([query, zeros], axis=-1)
    return t_support, t_query


# ---------------------------------------------------------------------------
# on-disk form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TokenSet:
    """One episode's tokens; `write_tokens` stores the rows as float32 and
    the labels and class ids as int64."""

    support: np.ndarray         # [S x 2d]
    query: np.ndarray           # [Q x 2d]
    support_labels: np.ndarray  # [S]
    query_labels: np.ndarray    # [Q]
    class_ids: np.ndarray       # [n_way]
    n_way: int
    k_shot: int
    d: int

    def __post_init__(self):
        if self.support.shape[1] != 2 * self.d or self.query.shape[1] != 2 * self.d:
            raise ValueError("token rows must be 2*d wide")
        if self.support.shape[0] != self.support_labels.shape[0]:
            raise ValueError("support label count mismatch")
        if self.query.shape[0] != self.query_labels.shape[0]:
            raise ValueError("query label count mismatch")


def write_tokens(ts: TokenSet, path) -> Path:
    meta = {"n_way": int(ts.n_way), "k_shot": int(ts.k_shot), "d": int(ts.d)}
    return write_arrays(path, MAGIC, meta, {
        "class_ids": np.asarray(ts.class_ids, dtype=np.int64),
        "support_labels": np.asarray(ts.support_labels, dtype=np.int64),
        "query_labels": np.asarray(ts.query_labels, dtype=np.int64),
        "support": np.asarray(ts.support, dtype=np.float32),
        "query": np.asarray(ts.query, dtype=np.float32),
    })


def read_tokens(path) -> TokenSet:
    """A malformed, truncated or corrupted token file raises ValueError."""
    meta, arrays = read_arrays(path, MAGIC)
    try:
        return TokenSet(**arrays, **meta)
    except (TypeError, IndexError) as exc:
        raise ValueError(f"token file {path} does not hold a token set: {exc}") from exc

