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
items are the corpus's graphs, tagged by `graph_split_tag`.

The class index of an item source (its classes, its train and query items,
and each item's dense class id) is built once per sampler and graph: the
first time a sampler draws from a graph, or from the graph level, it builds
the index and keeps it, so an episode only thresholds counts, masks and
draws. An index lives no longer than its sampler, which is bound to one
corpus and one policy over frozen graph arrays, so it cannot serve
another corpus's classes.

Link episodes are binary (edge vs non-edge) with a fixed 3:1
negative-to-positive ratio on both sides; negatives are rejection-sampled
node pairs that avoid every true edge in the graph. Each rejection round
draws all its candidate endpoints in one vectorized call and tests them
against the graph's cached key index (`Graph.edge_rows`), built once per
graph, in one lookup; only the pairs an episode has drawn are kept in a
per-episode set.
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


def _size(name: str, value) -> int:
    """`value` as a Python int. Sizes are counts: an int or numpy integer,
    never a bool (numpy would take it as 0 or 1) and never a float, which
    is refused rather than truncated. A numpy integer is converted, so the
    sampler's arithmetic cannot wrap in a narrow dtype."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ProtocolError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class _ClassIndex:
    """One item source's labelled items, indexed once per sampler.

    `classes` holds the source's labels in ascending order, and a dense
    class id is a position in it. `item_cls[i]` is item i's dense id;
    `train_cls` and `query_cls` are those of the train and query pools
    (items in ascending order), and `n_train` / `n_query` count each dense
    id in them."""
    classes: np.ndarray
    item_cls: np.ndarray
    train_items: np.ndarray
    train_cls: np.ndarray
    query_items: np.ndarray
    query_cls: np.ndarray
    n_train: np.ndarray
    n_query: np.ndarray

    @classmethod
    def build(cls, labels: np.ndarray, train_items: np.ndarray,
              query_items: np.ndarray) -> "_ClassIndex":
        classes, item_cls = np.unique(labels, return_inverse=True)
        train_cls, query_cls = item_cls[train_items], item_cls[query_items]
        return cls(classes, item_cls, train_items, train_cls, query_items, query_cls,
                   np.bincount(train_cls, minlength=len(classes)),
                   np.bincount(query_cls, minlength=len(classes)))


class EpisodeSampler:
    """Draws episodes from a corpus; one instance per (level, policy).

    The sampler builds a class index (`_ClassIndex`) once per graph it
    draws node episodes from, keyed by graph index, and once for the graph
    level, key -1, on first use. The indexes live as long as the sampler,
    which is bound to one corpus and one policy over frozen graph arrays,
    so none can serve another corpus's classes. A build that raises caches
    nothing."""

    def __init__(self, corpus: Corpus, level: str, n_way: int, k_shot: int,
                 query_size: int = 64, policy: str = "pretrain", seed: int = 0,
                 feat_drop: float = 0.0, edge_drop: float = 0.0):
        if level not in ("node", "link", "graph"):
            raise ProtocolError(f"unknown task level {level!r}")
        if policy not in ("pretrain", "eval"):
            raise ProtocolError(f"unknown pool policy {policy!r}")
        n_way = _size("n_way", n_way)
        k_shot = _size("k_shot", k_shot)
        query_size = _size("query_size", query_size)
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
        self._indexes: dict[int, _ClassIndex] = {}

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

    def _sample_labelled(self, k_shot: int, ix: _ClassIndex,
                         graph_index: int, where: str) -> Episode:
        """N-way K-shot episode over the labelled items of `ix`: supports
        come from its train items, queries from its query items minus the
        supports. `where` names the item source in errors.

        Classes are drawn as dense ids. `ok` lists, in ascending order, the
        same classes a draw over the labels themselves would, so the rng
        picks the same positions and `ix.classes` maps them back."""
        if self.policy == "pretrain":
            ok = np.flatnonzero(ix.n_train >= k_shot + 1)
        else:
            ok = np.flatnonzero((ix.n_train >= k_shot) & (ix.n_query > 0))
        if len(ok) < self.n_way:
            raise ProtocolError(
                f"{where}: only {len(ok)} classes have enough examples "
                f"for {self.n_way}-way {k_shot}-shot ({self.policy})"
            )
        picked = self.rng.choice(ok, size=self.n_way, replace=False)

        sup_refs = np.concatenate([
            self.rng.choice(ix.train_items[ix.train_cls == c], size=k_shot, replace=False)
            for c in picked
        ])
        rank = np.full(len(ix.classes), -1, dtype=np.int64)
        rank[picked] = np.arange(self.n_way)
        taken = np.zeros(len(ix.item_cls), dtype=bool)
        taken[sup_refs] = True
        pool = ix.query_items[(rank[ix.query_cls] >= 0) & ~taken[ix.query_items]]
        if not pool.size:
            raise ProtocolError(f"{where}: query pool empty after removing support")
        q_refs = self.rng.choice(pool, size=min(self.query_size, len(pool)),
                                 replace=False)
        return self._finish(graph_index, sup_refs,
                            np.repeat(np.arange(self.n_way), k_shot),
                            q_refs, rank[ix.item_cls[q_refs]], ix.classes[picked],
                            k_shot)

    def _sample_node(self, k_shot: int) -> Episode:
        gi = self._eligible[self.rng.integers(len(self._eligible))]
        ix = self._indexes.get(gi)
        if ix is None:
            g = self.corpus.graphs[gi]
            if g.node_split is None:
                raise ProtocolError(f"graph {gi} has no node split; assign one first")
            ix = self._indexes[gi] = _ClassIndex.build(
                g.node_labels, np.nonzero(g.node_split == TRAIN)[0],
                np.nonzero(g.node_split == self._query_pool_tag())[0])
        return self._sample_labelled(k_shot, ix, gi, f"graph {gi}")

    def _sample_graph(self, k_shot: int) -> Episode:
        ix = self._indexes.get(-1)
        if ix is None:
            graphs = self.corpus.graphs
            eligible = np.asarray(self._eligible, dtype=np.int64)
            tags = np.array([graphs[i].graph_split_tag for i in eligible])
            if any(t is None for t in tags):
                raise ProtocolError("graph-level episodes need corpus-wide split tags")
            # graphs that cannot serve the level get label -1, a class no
            # pool holds, so it never has enough examples
            labels = np.full(len(graphs), -1, dtype=np.int64)
            labels[eligible] = [graphs[i].graph_label for i in eligible]
            ix = self._indexes[-1] = _ClassIndex.build(
                labels, eligible[tags == TRAIN],
                eligible[tags == self._query_pool_tag()])
        return self._sample_labelled(k_shot, ix, -1, "graph level")

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
        k = self.k_shot if k_shot is None else _size("k_shot", k_shot)
        if k < 1:
            raise ProtocolError("k_shot must be >= 1")
        if self.level == "node":
            return self._sample_node(k)
        if self.level == "link":
            return self._sample_link(k)
        return self._sample_graph(k)
