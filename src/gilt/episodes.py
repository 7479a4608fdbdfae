"""Episode construction for few-shot training and evaluation.

An episode is an N-way K-shot task drawn at one level (node, link, graph).
Class identities never leave the episode: the sampler picks N real classes,
shuffles them, and relabels them 0..N-1, so the model can only solve the
task through the support set, not by memorizing label ids.

Two pool policies exist. "pretrain" draws support and query from the train
split with disjoint items; "eval" draws support from the train split and
query from the test split, which is the protocol every reported number
uses. Link episodes are binary (edge vs non-edge) with a fixed 3:1
negative-to-positive ratio on both sides; negatives are rejection-sampled
node pairs that avoid every true edge in the graph. Edge membership goes
through the graph's cached key index (`Graph.edge_rows`), built once per
graph; only the pairs an episode has drawn are kept in a per-episode set.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import TEST, TRAIN, Corpus, DataError, Graph

NEGATIVE_RATIO = 3
SHOT_START, SHOT_END = 20, 5


def round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def shots_at(epoch: int, total_epochs: int,
             start: int = SHOT_START, end: int = SHOT_END) -> int:
    """Linear shot-count decay over training, start at epoch 0."""
    if total_epochs < 1:
        raise ValueError("total_epochs must be >= 1")
    return round_half_up(start + (end - start) * epoch / total_epochs)


@dataclass(frozen=True)
class Episode:
    level: str
    n_way: int
    k_shot: int
    graph_index: int               # -1 for graph-level episodes
    support_refs: np.ndarray       # node: [S]; link: [S, 2]; graph: [S] corpus idx
    support_labels: np.ndarray     # [S] in [0, n_way)
    query_refs: np.ndarray
    query_labels: np.ndarray
    class_ids: np.ndarray          # [n_way] episode label -> original class id
    feat_drop: float = 0.0
    edge_drop: float = 0.0
    aug_seed: int = 0

    @property
    def support_size(self) -> int:
        return int(self.support_labels.shape[0])

    @property
    def query_size(self) -> int:
        return int(self.query_labels.shape[0])


class EpisodeSampler:
    """Draws episodes from a corpus; one instance per (level, policy)."""

    def __init__(self, corpus: Corpus, level: str, n_way: int, k_shot: int,
                 query_size: int = 64, policy: str = "pretrain", seed: int = 0,
                 feat_drop: float = 0.0, edge_drop: float = 0.0,
                 negative_ratio: int = NEGATIVE_RATIO):
        if level not in ("node", "link", "graph"):
            raise DataError(f"unknown task level {level!r}")
        if policy not in ("pretrain", "eval"):
            raise DataError(f"unknown pool policy {policy!r}")
        if n_way < 2:
            raise DataError("n_way must be >= 2")
        if level == "link" and n_way != 2:
            raise DataError("link episodes are binary; n_way must be 2")
        if k_shot < 1 or query_size < 1:
            raise DataError("k_shot and query_size must be >= 1")
        self.corpus = corpus
        self.level = level
        self.n_way = n_way
        self.k_shot = k_shot
        self.query_size = query_size
        self.policy = policy
        self.feat_drop = float(feat_drop)
        self.edge_drop = float(edge_drop)
        self.negative_ratio = int(negative_ratio)
        self.rng = np.random.default_rng(seed)
        self._eligible = corpus.supporting(level)
        if not self._eligible:
            raise DataError(f"corpus has no graph supporting level {level!r}")

    # -- helpers ----------------------------------------------------------

    def _query_pool_tag(self) -> int:
        return TRAIN if self.policy == "pretrain" else TEST

    def _finish(self, graph_index, support_refs, support_labels,
                query_refs, query_labels, class_ids, k_shot) -> Episode:
        order = self.rng.permutation(len(support_labels))
        qorder = self.rng.permutation(len(query_labels))
        return Episode(
            level=self.level,
            n_way=self.n_way,
            k_shot=k_shot,
            graph_index=graph_index,
            support_refs=np.asarray(support_refs)[order],
            support_labels=np.asarray(support_labels, dtype=np.int64)[order],
            query_refs=np.asarray(query_refs)[qorder],
            query_labels=np.asarray(query_labels, dtype=np.int64)[qorder],
            class_ids=np.asarray(class_ids, dtype=np.int64),
            feat_drop=self.feat_drop,
            edge_drop=self.edge_drop,
            aug_seed=int(self.rng.integers(0, 2 ** 31 - 1)),
        )

    # -- node level -------------------------------------------------------

    def _sample_node(self, k_shot: int) -> Episode:
        gi = self._eligible[self.rng.integers(len(self._eligible))]
        g = self.corpus.graphs[gi]
        if g.node_split is None:
            raise DataError(f"graph {gi} has no node split; assign one first")
        train_idx = np.nonzero(g.node_split == TRAIN)[0]
        query_idx = np.nonzero(g.node_split == self._query_pool_tag())[0]
        labels = g.node_labels

        ok = []
        for c in np.unique(labels):
            n_train = int(np.sum(labels[train_idx] == c))
            n_query = int(np.sum(labels[query_idx] == c))
            if self.policy == "pretrain":
                if n_train >= k_shot + 1:
                    ok.append(c)
            elif n_train >= k_shot and n_query >= 1:
                ok.append(c)
        if len(ok) < self.n_way:
            raise DataError(
                f"graph {gi}: only {len(ok)} classes have enough examples "
                f"for {self.n_way}-way {k_shot}-shot ({self.policy})"
            )
        class_ids = self.rng.choice(np.asarray(ok), size=self.n_way, replace=False)

        sup_refs, sup_labels = [], []
        taken = set()
        for ep_label, c in enumerate(class_ids):
            pool = train_idx[labels[train_idx] == c]
            picks = self.rng.choice(pool, size=k_shot, replace=False)
            sup_refs.extend(int(v) for v in picks)
            sup_labels.extend([ep_label] * k_shot)
            taken.update(int(v) for v in picks)

        mask = np.isin(labels[query_idx], class_ids)
        pool = [int(v) for v in query_idx[mask] if int(v) not in taken]
        if not pool:
            raise DataError(f"graph {gi}: query pool empty after removing support")
        size = min(self.query_size, len(pool))
        q_refs = self.rng.choice(np.asarray(pool), size=size, replace=False)
        remap = {int(c): i for i, c in enumerate(class_ids)}
        q_labels = [remap[int(labels[v])] for v in q_refs]
        return self._finish(gi, sup_refs, sup_labels, q_refs, q_labels,
                            class_ids, k_shot)

    # -- link level -------------------------------------------------------

    def _sample_negatives(self, g: Graph, count: int, drawn: set) -> list:
        """Rejection-sample `count` pairs that are neither edges of `g` nor in
        `drawn` (the pairs this episode already holds, updated in place).

        Each endpoint is one scalar draw, the stream every episode is pinned
        to. A round draws only as many candidates as are still missing, so
        it never draws past the pair that completes the set, and tests them
        against the edge index in one lookup.
        """
        n = g.node_count
        out = []
        limit = 200 * count + 1000
        tries = 0
        while len(out) < count:
            if tries >= limit:
                raise DataError(
                    f"could not find {count} non-edges in graph {g.name or '?'}; "
                    "graph too dense for negative sampling"
                )
            batch = []
            for _ in range(min(count - len(out), limit - tries)):
                tries += 1
                u = int(self.rng.integers(n))
                v = int(self.rng.integers(n))
                if u != v:
                    batch.append((min(u, v), max(u, v)))
            for pair, row in zip(batch, g.edge_rows(batch)):
                if row < 0 and pair not in drawn:
                    drawn.add(pair)
                    out.append(pair)
        return out

    def _sample_link(self, k_shot: int) -> Episode:
        gi = self._eligible[self.rng.integers(len(self._eligible))]
        g = self.corpus.graphs[gi]
        if g.edge_split is None:
            raise DataError(f"graph {gi} has no edge split; assign one first")
        train_e = np.nonzero(g.edge_split == TRAIN)[0]
        query_e = np.nonzero(g.edge_split == self._query_pool_tag())[0]
        q_pos = max(1, self.query_size // (1 + self.negative_ratio))
        need_train = k_shot + (q_pos if self.policy == "pretrain" else 0)
        if len(train_e) < need_train:
            raise DataError(f"graph {gi}: {len(train_e)} train edges < {need_train} needed")
        if self.policy == "eval" and len(query_e) < 1:
            raise DataError(f"graph {gi}: no test edges to query")

        picks = self.rng.choice(train_e, size=need_train, replace=False)
        sup_pos = g.edges[picks[:k_shot]]
        if self.policy == "pretrain":
            qry_pos = g.edges[picks[k_shot:]]
        else:
            q_pos = min(q_pos, len(query_e))
            qry_pos = g.edges[self.rng.choice(query_e, size=q_pos, replace=False)]

        drawn: set = set()
        sup_neg = self._sample_negatives(g, self.negative_ratio * k_shot, drawn)
        qry_neg = self._sample_negatives(g, self.negative_ratio * len(qry_pos), drawn)

        sup_refs = np.concatenate([sup_pos, np.asarray(sup_neg).reshape(-1, 2)])
        sup_labels = [1] * len(sup_pos) + [0] * len(sup_neg)
        q_refs = np.concatenate([qry_pos, np.asarray(qry_neg).reshape(-1, 2)])
        q_labels = [1] * len(qry_pos) + [0] * len(qry_neg)
        return self._finish(gi, sup_refs, sup_labels, q_refs, q_labels,
                            np.array([0, 1]), k_shot)

    # -- graph level ------------------------------------------------------

    def _sample_graph(self, k_shot: int) -> Episode:
        tags = [g.graph_split_tag for g in self.corpus.graphs]
        if any(t is None for i, t in enumerate(tags) if i in self._eligible):
            raise DataError("graph-level episodes need corpus-wide split tags")
        lab = {i: self.corpus.graphs[i].graph_label for i in self._eligible}
        train_pool = [i for i in self._eligible if tags[i] == TRAIN]
        query_pool = [i for i in self._eligible if tags[i] == self._query_pool_tag()]

        ok = []
        for c in sorted({v for v in lab.values()}):
            n_train = sum(1 for i in train_pool if lab[i] == c)
            n_query = sum(1 for i in query_pool if lab[i] == c)
            if self.policy == "pretrain":
                if n_train >= k_shot + 1:
                    ok.append(c)
            elif n_train >= k_shot and n_query >= 1:
                ok.append(c)
        if len(ok) < self.n_way:
            raise DataError(
                f"only {len(ok)} graph classes have enough graphs for "
                f"{self.n_way}-way {k_shot}-shot ({self.policy})"
            )
        class_ids = self.rng.choice(np.asarray(ok), size=self.n_way, replace=False)

        sup_refs, sup_labels = [], []
        taken = set()
        for ep_label, c in enumerate(class_ids):
            pool = [i for i in train_pool if lab[i] == c]
            picks = self.rng.choice(np.asarray(pool), size=k_shot, replace=False)
            sup_refs.extend(int(v) for v in picks)
            sup_labels.extend([ep_label] * k_shot)
            taken.update(int(v) for v in picks)

        pool = [i for i in query_pool if lab[i] in set(int(c) for c in class_ids)
                and i not in taken]
        if not pool:
            raise DataError("graph query pool empty after removing support")
        size = min(self.query_size, len(pool))
        q_refs = self.rng.choice(np.asarray(pool), size=size, replace=False)
        remap = {int(c): i for i, c in enumerate(class_ids)}
        q_labels = [remap[lab[int(v)]] for v in q_refs]
        return self._finish(-1, sup_refs, sup_labels, q_refs, q_labels,
                            class_ids, k_shot)

    # -- entry point ------------------------------------------------------

    def sample(self, k_shot: int | None = None) -> Episode:
        k = self.k_shot if k_shot is None else int(k_shot)
        if k < 1:
            raise DataError("k_shot must be >= 1")
        if self.level == "node":
            return self._sample_node(k)
        if self.level == "link":
            return self._sample_link(k)
        return self._sample_graph(k)
