"""Episode construction for few-shot training and evaluation.

An episode is an N-way K-shot task drawn at one level (node, link, graph).
Class identities never leave the episode: the sampler picks N real classes,
shuffles them, and relabels them 0..N-1, so the model can only solve the
task through the support set, not by memorizing label ids.

Two pool policies exist. "pretrain" draws support and query from the train
split with disjoint items; "eval" draws support from the train split and
query from the test split, which is the protocol every reported number
uses.

Node and graph episodes take one labelled-item path (`_sample_labelled`):
an item has a class label and a split tag, and only the items differ by
level. Node items are one graph's nodes, tagged by its `node_split`; graph
items are the corpus's graphs, tagged by `graph_split_tag`. Link episodes
are binary (edge vs non-edge) with a fixed 3:1 negative-to-positive ratio on
both sides; negatives are rejection-sampled node pairs that avoid every true
edge in the graph. Each rejection round draws all its candidate endpoints in
one vectorized call and tests them against the graph's cached key index
(`Graph.edge_rows`), built once per graph, in one lookup; only the pairs an
episode has drawn are kept in a per-episode set.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import TEST, TRAIN, Corpus, DataError, Graph

NEGATIVE_RATIO = 3
SHOT_START, SHOT_END = 20, 5


class ProtocolError(DataError):
    """The sampler refuses an episode: the corpus cannot serve the level,
    policy, class count or shot count asked for."""


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
                 feat_drop: float = 0.0, edge_drop: float = 0.0):
        if level not in ("node", "link", "graph"):
            raise ProtocolError(f"unknown task level {level!r}")
        if policy not in ("pretrain", "eval"):
            raise ProtocolError(f"unknown pool policy {policy!r}")
        if n_way < 2:
            raise ProtocolError("n_way must be >= 2")
        if level == "link" and n_way != 2:
            raise ProtocolError("link episodes are binary; n_way must be 2")
        if k_shot < 1 or query_size < 1:
            raise ProtocolError("k_shot and query_size must be >= 1")
        self.corpus = corpus
        self.level = level
        self.n_way = n_way
        self.k_shot = k_shot
        self.query_size = query_size
        self.policy = policy
        self.feat_drop = float(feat_drop)
        self.edge_drop = float(edge_drop)
        self.rng = np.random.default_rng(seed)
        self._eligible = corpus.supporting(level)
        if not self._eligible:
            raise ProtocolError(f"corpus has no graph supporting level {level!r}")

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

    # -- node and graph level: one labelled-item path ----------------------

    def _sample_labelled(self, k_shot: int, train_items: np.ndarray,
                         query_items: np.ndarray, labels: np.ndarray,
                         graph_index: int, where: str) -> Episode:
        """N-way K-shot episode over labelled items: `labels[i]` is item i's
        class, supports come from `train_items`, queries from `query_items`
        minus the supports. `where` names the item source in errors."""
        classes, n_train = np.unique(labels[train_items], return_counts=True)
        if self.policy == "pretrain":
            ok = classes[n_train >= k_shot + 1]
        else:
            in_query = np.isin(classes, labels[query_items])
            ok = classes[(n_train >= k_shot) & in_query]
        if len(ok) < self.n_way:
            raise ProtocolError(
                f"{where}: only {len(ok)} classes have enough examples "
                f"for {self.n_way}-way {k_shot}-shot ({self.policy})"
            )
        class_ids = self.rng.choice(ok, size=self.n_way, replace=False)

        sup_refs = np.concatenate([
            self.rng.choice(train_items[labels[train_items] == c], size=k_shot,
                            replace=False)
            for c in class_ids
        ])
        pool = query_items[np.isin(labels[query_items], class_ids)
                           & ~np.isin(query_items, sup_refs)]
        if not pool.size:
            raise ProtocolError(f"{where}: query pool empty after removing support")
        q_refs = self.rng.choice(pool, size=min(self.query_size, len(pool)),
                                 replace=False)
        q_labels = np.argmax(labels[q_refs][:, None] == class_ids, axis=1)
        return self._finish(graph_index, sup_refs,
                            np.repeat(np.arange(self.n_way), k_shot),
                            q_refs, q_labels, class_ids, k_shot)

    def _sample_node(self, k_shot: int) -> Episode:
        gi = self._eligible[self.rng.integers(len(self._eligible))]
        g = self.corpus.graphs[gi]
        if g.node_split is None:
            raise ProtocolError(f"graph {gi} has no node split; assign one first")
        return self._sample_labelled(
            k_shot, np.nonzero(g.node_split == TRAIN)[0],
            np.nonzero(g.node_split == self._query_pool_tag())[0],
            g.node_labels, gi, f"graph {gi}")

    def _sample_graph(self, k_shot: int) -> Episode:
        graphs = self.corpus.graphs
        eligible = np.asarray(self._eligible, dtype=np.int64)
        tags = np.array([graphs[i].graph_split_tag for i in eligible])
        if any(t is None for t in tags):
            raise ProtocolError("graph-level episodes need corpus-wide split tags")
        labels = np.full(len(graphs), -1, dtype=np.int64)
        labels[eligible] = [graphs[i].graph_label for i in eligible]
        return self._sample_labelled(
            k_shot, eligible[tags == TRAIN],
            eligible[tags == self._query_pool_tag()],
            labels, -1, "graph level")

    # -- link level -------------------------------------------------------

    def _sample_negatives(self, g: Graph, count: int, drawn: set) -> list:
        """Rejection-sample `count` pairs that are neither edges of `g` nor in
        `drawn` (the pairs this episode already holds, updated in place).

        A round draws only as many candidates as are still missing, so it
        never draws past the pair that completes the set. It draws them in
        one `rng.integers(n, size=(m, 2))` call, which in C order is the u,
        v, u, v ... stream of scalar draws every episode is pinned to. Pairs
        with u == v are skipped; the rest are tested against the edge index
        in one lookup.
        """
        n = g.node_count
        out = []
        limit = 200 * count + 1000
        tries = 0
        while len(out) < count:
            if tries >= limit:
                raise ProtocolError(
                    f"could not find {count} non-edges in graph {g.name or '?'}; "
                    "graph too dense for negative sampling"
                )
            m = min(count - len(out), limit - tries)
            tries += m
            uv = self.rng.integers(n, size=(m, 2))
            uv = np.sort(uv[uv[:, 0] != uv[:, 1]], axis=1)
            for pair in map(tuple, uv[g.edge_rows(uv) < 0].tolist()):
                if pair not in drawn:
                    drawn.add(pair)
                    out.append(pair)
        return out

    def _sample_link(self, k_shot: int) -> Episode:
        gi = self._eligible[self.rng.integers(len(self._eligible))]
        g = self.corpus.graphs[gi]
        if g.edge_split is None:
            raise ProtocolError(f"graph {gi} has no edge split; assign one first")
        train_e = np.nonzero(g.edge_split == TRAIN)[0]
        query_e = np.nonzero(g.edge_split == self._query_pool_tag())[0]
        q_pos = max(1, self.query_size // (1 + NEGATIVE_RATIO))
        need_train = k_shot + (q_pos if self.policy == "pretrain" else 0)
        if len(train_e) < need_train:
            raise ProtocolError(f"graph {gi}: {len(train_e)} train edges < {need_train} needed")
        if self.policy == "eval" and len(query_e) < 1:
            raise ProtocolError(f"graph {gi}: no test edges to query")

        picks = self.rng.choice(train_e, size=need_train, replace=False)
        sup_pos = g.edges[picks[:k_shot]]
        if self.policy == "pretrain":
            qry_pos = g.edges[picks[k_shot:]]
        else:
            q_pos = min(q_pos, len(query_e))
            qry_pos = g.edges[self.rng.choice(query_e, size=q_pos, replace=False)]

        drawn: set = set()
        sup_neg = self._sample_negatives(g, NEGATIVE_RATIO * k_shot, drawn)
        qry_neg = self._sample_negatives(g, NEGATIVE_RATIO * len(qry_pos), drawn)

        sup_refs = np.concatenate([sup_pos, np.asarray(sup_neg).reshape(-1, 2)])
        sup_labels = [1] * len(sup_pos) + [0] * len(sup_neg)
        q_refs = np.concatenate([qry_pos, np.asarray(qry_neg).reshape(-1, 2)])
        q_labels = [1] * len(qry_pos) + [0] * len(qry_neg)
        return self._finish(gi, sup_refs, sup_labels, q_refs, q_labels,
                            np.array([0, 1]), k_shot)

    # -- entry point ------------------------------------------------------

    def sample(self, k_shot: int | None = None) -> Episode:
        k = self.k_shot if k_shot is None else int(k_shot)
        if k < 1:
            raise ProtocolError("k_shot must be >= 1")
        if self.level == "node":
            return self._sample_node(k)
        if self.level == "link":
            return self._sample_link(k)
        return self._sample_graph(k)
