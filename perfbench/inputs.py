"""Seeded input corpora for the benchmark workloads.

Every corpus is a pure function of (workload seed, scale). Graphs are drawn
from a stochastic block model in O(E): for each block pair the edge count is
a binomial draw and the edges are distinct pair indices decoded back to
(u, v), so no dense n x n matrix ever exists. That matters at 4000 nodes,
where a dense draw would peak near 400 MB and swamp `peak_rss_mb`.

Node and graph splits are stratified by class, so every seed yields the
per-class counts the desk preset needs (10 shots + 1 query per class in
the first training epochs, 5 shots + 1 query in evaluation).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from gilt.graphs import (TEST, TRAIN, VALID, Corpus, assign_split,
                         make_graph)

SPLIT = (0.6, 0.2, 0.2)


def _pairs_within(rng, n: int, p: float) -> np.ndarray:
    """Distinct unordered pairs (i < j) of range(n), each kept with prob p."""
    m = n * (n - 1) // 2
    k = rng.binomial(m, p)
    idx = rng.choice(m, size=k, replace=False).astype(np.int64)
    # invert idx = i*n - i*(i+1)/2 + (j - i - 1), the row-major upper triangle
    i = (n - 2 - np.floor(np.sqrt(-8.0 * idx + 4.0 * n * (n - 1) - 7) / 2.0 - 0.5)
         ).astype(np.int64)
    j = idx + i + 1 - m + (n - i) * (n - i - 1) // 2
    return np.stack([i, j], axis=1)


def _pairs_between(rng, na: int, nb: int, p: float) -> np.ndarray:
    """Distinct pairs (i in range(na), j in range(nb)), each kept with prob p."""
    k = rng.binomial(na * nb, p)
    idx = rng.choice(na * nb, size=k, replace=False).astype(np.int64)
    return np.stack([idx // nb, idx % nb], axis=1)


def sbm_edges(rng, n_classes: int, per_class: int, p_in: float,
              p_out: float) -> np.ndarray:
    """Exact SBM edge draw over equal blocks of `per_class` nodes."""
    parts = []
    for a in range(n_classes):
        parts.append(_pairs_within(rng, per_class, p_in) + a * per_class)
        for b in range(a + 1, n_classes):
            pairs = _pairs_between(rng, per_class, per_class, p_out)
            parts.append(pairs + np.array([a * per_class, b * per_class]))
    return np.concatenate(parts).reshape(-1, 2)


def _stratified_tags(rng, labels: np.ndarray) -> np.ndarray:
    """60/20/20 train/valid/test within every class."""
    tags = np.empty(labels.shape[0], dtype=np.int8)
    for c in np.unique(labels):
        members = rng.permutation(np.nonzero(labels == c)[0])
        n_train = int(round(SPLIT[0] * members.size))
        n_valid = int(round(SPLIT[1] * members.size))
        tags[members[:n_train]] = TRAIN
        tags[members[n_train:n_train + n_valid]] = VALID
        tags[members[n_train + n_valid:]] = TEST
    return tags


def sbm_graph(rng, n_classes: int, per_class: int, p_in: float, p_out: float,
              feature_dim: int, separation: float = 1.0, noise_sd: float = 1.0,
              graph_label: int | None = None, name: str = ""):
    """SBM graph with Gaussian class-conditional features, node and edge
    splits assigned; class means sit on scaled coordinate axes."""
    n = n_classes * per_class
    labels = np.repeat(np.arange(n_classes), per_class)
    means = np.zeros((n_classes, feature_dim))
    means[np.arange(n_classes), np.arange(n_classes) % feature_dim] = separation
    features = means[labels] + noise_sd * rng.standard_normal((n, feature_dim))
    edges = sbm_edges(rng, n_classes, per_class, p_in, p_out)
    g = make_graph(n, edges, features, node_labels=labels,
                   node_split=_stratified_tags(rng, labels),
                   graph_label=graph_label, name=name)
    return assign_split(g, SPLIT, "link", seed=int(rng.integers(2 ** 31)))


@dataclass(frozen=True)
class Scale:
    """Corpus sizes; `full` is the benchmark, `toy` the smoke check."""

    small_graphs: int
    small_per_class: int
    graph_corpus: int
    graph_per_class: int
    large_per_class: int
    large_widths: tuple              # one large graph per feature width
    train_overrides: tuple = ()      # (field, value) pairs over the desk preset
    timed_epochs: int | None = None  # overrides each workload's epoch count


FULL = Scale(small_graphs=8, small_per_class=40, graph_corpus=100,
             graph_per_class=20, large_per_class=1000,
             large_widths=(64, 512, 2600))
TOY = Scale(small_graphs=2, small_per_class=20, graph_corpus=40,
            graph_per_class=12, large_per_class=60,
            large_widths=(16, 48),
            train_overrides=(("episodes_per_level", 4), ("batch_episodes", 2),
                             ("shot_start", 3), ("shot_end", 2)),
            timed_epochs=1)


def small_corpus(seed: int, scale: Scale) -> Corpus:
    """8 x 160-node graphs, 32-wide features: the desk-size corpus."""
    rng = np.random.default_rng([seed, 1])
    return Corpus(graphs=tuple(
        sbm_graph(rng, 4, scale.small_per_class, 0.30, 0.02, 32, name=f"small{i}")
        for i in range(scale.small_graphs)))


def large_corpus(seed: int, scale: Scale) -> Corpus:
    """4000-node graphs with mean degree near 15 (12 within the block, 3
    across), one per feature width: 64, 512, and 2600, whose 10.4M feature
    entries cross `features.INCREMENTAL_THRESHOLD` so the streaming PCA runs."""
    rng = np.random.default_rng([seed, 2])
    n = scale.large_per_class
    p_in, p_out = 12.0 / n, 1.0 / n
    return Corpus(graphs=tuple(
        sbm_graph(rng, 4, n, p_in, p_out, width, name=f"large{i}")
        for i, width in enumerate(scale.large_widths)))


# intra-block density per graph class: the label is a structural property,
# so graph-level loss can fall during training
GRAPH_CLASS_DENSITY = (0.15, 0.3, 0.45, 0.6)


def graph_corpus(seed: int, scale: Scale) -> Corpus:
    """Small labelled graphs, four graph classes told apart by block density,
    with a class-stratified graph split."""
    rng = np.random.default_rng([seed, 3])
    classes = len(GRAPH_CLASS_DENSITY)
    labels = np.arange(scale.graph_corpus) % classes
    tags = _stratified_tags(rng, labels)
    graphs = []
    for i, (label, tag) in enumerate(zip(labels, tags)):
        g = sbm_graph(rng, 4, scale.graph_per_class, GRAPH_CLASS_DENSITY[label],
                      0.03, 32, graph_label=int(label), name=f"graph{i}")
        graphs.append(replace(g, graph_split_tag=int(tag)))
    return Corpus(graphs=tuple(graphs))
