"""Prototype readout: classify queries without any task-specific weights.

After the transformer runs, each token's trailing d columns are the class
space (where support tokens started with their class prototype and queries
started with zeros). The head takes the prototypes of the support class-space
vectors with `tokens.class_prototypes` (L2-normalized class means), scores
each L2-normalized query row against them (their cosine similarity), and
log-softmaxes the scores under a fixed temperature. Nothing here is learned,
so adapting to a new task needs no gradient steps at all.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .tokens import PROTO_NORM_FLOOR, class_prototypes

TEMPERATURE = 10.0


def class_space(tokens: ad.Tensor, d: int, full_token: bool = False) -> ad.Tensor:
    """Trailing-d slice by default; the whole 2d token for the ablation."""
    if full_token:
        return tokens
    return ad.slice_cols(tokens, d, 2 * d)


def predict(s_out: ad.Tensor, q_out: ad.Tensor, support_labels: np.ndarray,
            n_way: int, d: int, full_token: bool = False) -> ad.Tensor:
    """Class log-probabilities [... x Q x n_way] for each query token, from
    support tokens [... x S x 2d] with labels [... x S]."""
    protos = class_prototypes(class_space(s_out, d, full_token), support_labels, n_way)
    queries = ad.normalize_rows(class_space(q_out, d, full_token), PROTO_NORM_FLOOR)
    scores = ad.matmul(queries, protos, transpose_b=True)
    return ad.log_softmax(ad.mul(scores, TEMPERATURE))


def query_weights(shape, query_labels) -> np.ndarray:
    """Weights of `shape` ([B x Qmax x n_way], one label array per episode):
    -1/Q_b at the true class of each of episode b's Q_b queries, 0 elsewhere,
    so rows past Q_b (padding) weigh nothing."""
    weights = np.zeros(shape)
    for w, labels in zip(weights, query_labels):
        labels = np.asarray(labels, dtype=np.int64)
        w[np.arange(labels.shape[0]), labels] = -1.0 / labels.shape[0]
    return weights


def episode_loss(logp: ad.Tensor, query_labels) -> ad.Tensor:
    """Mean negative log-probability of the true classes, averaged over the
    batch's episodes: each episode's 1/Q_b and the batch's 1/B fold into one
    weight array (see query_weights)."""
    weights = query_weights(logp.values.shape, query_labels) / len(query_labels)
    return ad.sum_(ad.mul(logp, weights))
