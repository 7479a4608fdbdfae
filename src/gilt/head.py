"""Prototype readout: classify queries without any task-specific weights.

After the transformer runs, each token's trailing d columns are the class
space (where support tokens started with their class prototype and queries
started with zeros). The head averages the support class-space vectors per
class into prototypes, scores each query by cosine similarity against
them, and log-softmaxes the scores under a fixed temperature. Nothing here is
learned, so adapting to a new task needs no gradient steps at all.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad

TEMPERATURE = 10.0


def class_space(tokens: ad.Tensor, d: int, full_token: bool = False) -> ad.Tensor:
    """Trailing-d slice by default; the whole 2d token for the ablation."""
    if full_token:
        return tokens
    return ad.slice_cols(tokens, d, 2 * d)


def predict(s_out: ad.Tensor, q_out: ad.Tensor, support_labels: np.ndarray,
            n_way: int, d: int, temperature: float = TEMPERATURE,
            full_token: bool = False) -> ad.Tensor:
    """Class log-probabilities [Q x n_way] for each query token."""
    protos = ad.class_means(class_space(s_out, d, full_token), support_labels, n_way)
    scores = ad.cosine_rows(class_space(q_out, d, full_token), protos)
    return ad.log_softmax(ad.mul(scores, temperature))


def episode_loss(logp: ad.Tensor, query_labels: np.ndarray) -> ad.Tensor:
    """Mean negative log-probability of the true classes."""
    labels = np.asarray(query_labels, dtype=np.int64)
    weights = np.zeros(logp.values.shape)
    weights[np.arange(labels.shape[0]), labels] = -1.0 / labels.shape[0]
    return ad.sum_(ad.mul(logp, weights))
