import numpy as np
import pytest

from gilt.episodes import (
    NEGATIVE_RATIO,
    EpisodeSampler,
    ProtocolError,
    round_half_up,
    shots_at,
)
from gilt.evaluate import sweep_shots
from gilt.graphs import (
    TEST,
    TRAIN,
    Corpus,
    DataError,
    SyntheticSpec,
    assign_graph_splits,
    assign_split,
    make_graph,
    make_synthetic,
)
from gilt.model import ModelConfig, init_params


@pytest.fixture(scope="module")
def node_corpus():
    g = make_synthetic(SyntheticSpec(4, 40, 0.3, 0.05, 8, 1.0, 0.5, seed=0))
    g = assign_split(g, (0.6, 0.2, 0.2), "node", seed=1)
    return Corpus(graphs=(g,))


@pytest.fixture(scope="module")
def link_corpus():
    g = make_synthetic(SyntheticSpec(3, 30, 0.3, 0.05, 8, 1.0, 0.5, seed=2))
    g = assign_split(g, (0.6, 0.2, 0.2), "link", seed=3)
    return Corpus(graphs=(g,))


@pytest.fixture(scope="module")
def graph_corpus():
    graphs = []
    for i in range(24):
        feats = np.random.default_rng(i).standard_normal((3, 4))
        graphs.append(make_graph(3, [[0, 1], [1, 2]], feats, graph_label=i % 2))
    return assign_graph_splits(Corpus(graphs=tuple(graphs)), (0.5, 0.25, 0.25), seed=4)


class TestShotSchedule:
    def test_round_half_up(self):
        assert round_half_up(12.5) == 13
        assert round_half_up(5.3) == 5
        assert round_half_up(0.5) == 1
        assert round_half_up(1.49) == 1

    def test_endpoints_and_midpoint(self):
        assert shots_at(0, 50) == 20
        assert shots_at(25, 50) == 13
        assert shots_at(49, 50) == 5

    def test_monotone_non_increasing(self):
        seq = [shots_at(e, 40) for e in range(40)]
        assert all(a >= b for a, b in zip(seq, seq[1:]))

    def test_custom_range(self):
        assert shots_at(0, 10, start=8, end=2) == 8
        assert shots_at(9, 10, start=8, end=2) == 3


class TestNodeEpisodes:
    def test_shape_and_balance(self, node_corpus):
        s = EpisodeSampler(node_corpus, "node", n_way=3, k_shot=4, seed=0)
        ep = s.sample()
        assert ep.support_size == 12
        counts = np.bincount(ep.support_labels, minlength=3)
        assert counts.tolist() == [4, 4, 4]
        assert set(np.unique(ep.query_labels)) <= {0, 1, 2}

    def test_pretrain_pools_disjoint_and_train_only(self, node_corpus):
        g = node_corpus.graphs[0]
        s = EpisodeSampler(node_corpus, "node", 3, 4, policy="pretrain", seed=1)
        for _ in range(10):
            ep = s.sample()
            assert set(ep.support_refs).isdisjoint(ep.query_refs)
            assert np.all(g.node_split[ep.support_refs] == TRAIN)
            assert np.all(g.node_split[ep.query_refs] == TRAIN)

    def test_eval_pools_split_correctly(self, node_corpus):
        g = node_corpus.graphs[0]
        s = EpisodeSampler(node_corpus, "node", 3, 4, policy="eval", seed=2)
        for _ in range(10):
            ep = s.sample()
            assert np.all(g.node_split[ep.support_refs] == TRAIN)
            assert np.all(g.node_split[ep.query_refs] == TEST)

    def test_labels_relabeled_through_class_ids(self, node_corpus):
        g = node_corpus.graphs[0]
        s = EpisodeSampler(node_corpus, "node", 4, 3, seed=3)
        ep = s.sample()
        assert np.array_equal(g.node_labels[ep.support_refs], ep.class_ids[ep.support_labels])
        assert np.array_equal(g.node_labels[ep.query_refs], ep.class_ids[ep.query_labels])

    def test_deterministic_for_seed(self, node_corpus):
        a = EpisodeSampler(node_corpus, "node", 3, 4, seed=9)
        b = EpisodeSampler(node_corpus, "node", 3, 4, seed=9)
        for _ in range(5):
            ea, eb = a.sample(), b.sample()
            assert np.array_equal(ea.support_refs, eb.support_refs)
            assert np.array_equal(ea.query_refs, eb.query_refs)
            assert ea.aug_seed == eb.aug_seed

    def test_shot_override(self, node_corpus):
        s = EpisodeSampler(node_corpus, "node", 2, 4, seed=4)
        assert s.sample(k_shot=7).support_size == 14

    def test_query_capped_by_query_size(self, node_corpus):
        s = EpisodeSampler(node_corpus, "node", 2, 2, query_size=5, seed=5)
        assert s.sample().query_size <= 5

    def test_too_many_ways_rejected(self, node_corpus):
        s = EpisodeSampler(node_corpus, "node", 5, 4, seed=6)
        with pytest.raises(DataError, match="classes"):
            s.sample()

    def test_missing_split_rejected(self):
        g = make_synthetic(SyntheticSpec(3, 10, 0.3, 0.1, 4, 1.0, 0.3, seed=7))
        s = EpisodeSampler(Corpus(graphs=(g,)), "node", 2, 2, seed=0)
        with pytest.raises(DataError, match="split"):
            s.sample()

    def test_augmentation_recorded(self, node_corpus):
        s = EpisodeSampler(node_corpus, "node", 2, 2, feat_drop=0.1, edge_drop=0.1, seed=8)
        ep = s.sample()
        assert ep.feat_drop == 0.1 and ep.edge_drop == 0.1


class TestLinkEpisodes:
    def test_three_to_one_ratio(self, link_corpus):
        s = EpisodeSampler(link_corpus, "link", 2, 4, query_size=32, seed=0)
        ep = s.sample()
        sup = np.bincount(ep.support_labels, minlength=2)
        qry = np.bincount(ep.query_labels, minlength=2)
        assert sup[1] == 4 and sup[0] == 12
        assert qry[0] == 3 * qry[1]

    def test_positives_are_real_edges(self, link_corpus):
        g = link_corpus.graphs[0]
        edge_set = g.edge_set()
        s = EpisodeSampler(link_corpus, "link", 2, 4, seed=1)
        for _ in range(5):
            ep = s.sample()
            for refs, labels in ((ep.support_refs, ep.support_labels),
                                 (ep.query_refs, ep.query_labels)):
                for (u, v), y in zip(refs, labels):
                    pair = (min(u, v), max(u, v))
                    if y == 1:
                        assert pair in edge_set
                    else:
                        assert pair not in edge_set
                        assert u != v

    def test_eval_query_positives_from_test_edges(self, link_corpus):
        g = link_corpus.graphs[0]
        test_edges = {tuple(e) for e in g.edges[g.edge_split == TEST]}
        train_edges = {tuple(e) for e in g.edges[g.edge_split == TRAIN]}
        s = EpisodeSampler(link_corpus, "link", 2, 4, policy="eval", seed=2)
        for _ in range(5):
            ep = s.sample()
            sup_pos = {tuple(sorted(r)) for r, y in zip(ep.support_refs, ep.support_labels) if y == 1}
            qry_pos = {tuple(sorted(r)) for r, y in zip(ep.query_refs, ep.query_labels) if y == 1}
            assert sup_pos <= train_edges
            assert qry_pos <= test_edges

    def test_pretrain_support_query_positive_disjoint(self, link_corpus):
        s = EpisodeSampler(link_corpus, "link", 2, 4, seed=3)
        ep = s.sample()
        sup_pos = {tuple(sorted(r)) for r, y in zip(ep.support_refs, ep.support_labels) if y == 1}
        qry_pos = {tuple(sorted(r)) for r, y in zip(ep.query_refs, ep.query_labels) if y == 1}
        assert sup_pos.isdisjoint(qry_pos)

    def test_n_way_must_be_two(self, link_corpus):
        with pytest.raises(DataError, match="binary"):
            EpisodeSampler(link_corpus, "link", 3, 4)

    def test_dense_graph_exhausts_negatives(self):
        n = 6
        edges = [[i, j] for i in range(n) for j in range(i + 1, n)]
        g = make_graph(n, edges, np.zeros((n, 2)))
        g = assign_split(g, (0.6, 0.2, 0.2), "link", seed=0)
        s = EpisodeSampler(Corpus(graphs=(g,)), "link", 2, 2, query_size=4, seed=0)
        with pytest.raises(DataError, match="dense"):
            s.sample()


class SetBasedSampler(EpisodeSampler):
    """Reference link sampler: one Python set of every edge per episode,
    which also collects the drawn negatives, tested one pair at a time."""

    def _sample_negatives(self, g, count, banned):
        out = []
        limit = 200 * count + 1000
        tries = 0
        while len(out) < count:
            tries += 1
            if tries > limit:
                raise DataError(
                    f"could not find {count} non-edges in graph {g.name or '?'}; "
                    "graph too dense for negative sampling"
                )
            u = int(self.rng.integers(g.node_count))
            v = int(self.rng.integers(g.node_count))
            if u == v:
                continue
            pair = (min(u, v), max(u, v))
            if pair in banned:
                continue
            banned.add(pair)
            out.append(pair)
        return out

    def _sample_link(self, k_shot):
        gi = self._eligible[self.rng.integers(len(self._eligible))]
        g = self.corpus.graphs[gi]
        train_e = np.nonzero(g.edge_split == TRAIN)[0]
        query_e = np.nonzero(g.edge_split == self._query_pool_tag())[0]
        q_pos = max(1, self.query_size // (1 + NEGATIVE_RATIO))
        need_train = k_shot + (q_pos if self.policy == "pretrain" else 0)
        picks = self.rng.choice(train_e, size=need_train, replace=False)
        sup_pos = g.edges[picks[:k_shot]]
        if self.policy == "pretrain":
            qry_pos = g.edges[picks[k_shot:]]
        else:
            q_pos = min(q_pos, len(query_e))
            qry_pos = g.edges[self.rng.choice(query_e, size=q_pos, replace=False)]
        banned = {(int(a), int(b)) for a, b in g.edges}
        sup_neg = self._sample_negatives(g, NEGATIVE_RATIO * k_shot, banned)
        qry_neg = self._sample_negatives(g, NEGATIVE_RATIO * len(qry_pos), banned)
        sup_refs = np.concatenate([sup_pos, np.asarray(sup_neg).reshape(-1, 2)])
        sup_labels = [1] * len(sup_pos) + [0] * len(sup_neg)
        q_refs = np.concatenate([qry_pos, np.asarray(qry_neg).reshape(-1, 2)])
        q_labels = [1] * len(qry_pos) + [0] * len(qry_neg)
        return self._finish(gi, sup_refs, sup_labels, q_refs, q_labels,
                            np.array([0, 1]), k_shot)


def _link_corpus(n_per_class, intra, inter, seed):
    g = make_synthetic(SyntheticSpec(3, n_per_class, intra, inter, 4, 1.0, 0.5, seed=seed))
    return Corpus(graphs=(assign_split(g, (0.6, 0.2, 0.2), "link", seed=seed + 1),))


class TestLinkSamplerMatchesSetReference:
    # dense: about half of all pairs are edges, so many draws are rejected
    CORPORA = {"dense": (12, 0.6, 0.45, 5), "sparse": (100, 0.03, 0.005, 6)}

    @pytest.mark.parametrize("policy", ["pretrain", "eval"])
    @pytest.mark.parametrize("density", sorted(CORPORA))
    def test_identical_episodes(self, density, policy):
        corpus = _link_corpus(*self.CORPORA[density])
        for seed in range(4):
            new = EpisodeSampler(corpus, "link", 2, 3, query_size=24,
                                 policy=policy, seed=seed)
            ref = SetBasedSampler(corpus, "link", 2, 3, query_size=24,
                                  policy=policy, seed=seed)
            for k in (3, 1, 5):
                a, b = new.sample(k_shot=k), ref.sample(k_shot=k)
                assert np.array_equal(a.support_refs, b.support_refs)
                assert np.array_equal(a.support_labels, b.support_labels)
                assert np.array_equal(a.query_refs, b.query_refs)
                assert np.array_equal(a.query_labels, b.query_labels)
                assert a.aug_seed == b.aug_seed
                assert new.rng.bit_generator.state == ref.rng.bit_generator.state

    @pytest.mark.parametrize("policy", ["pretrain", "eval"])
    @pytest.mark.parametrize("density", sorted(CORPORA))
    def test_negatives_unique_across_support_and_query(self, density, policy):
        corpus = _link_corpus(*self.CORPORA[density])
        s = EpisodeSampler(corpus, "link", 2, 4, query_size=40, policy=policy, seed=9)
        for _ in range(5):
            ep = s.sample()
            neg = [tuple(r) for r, y in zip(ep.support_refs.tolist(), ep.support_labels)
                   if y == 0]
            neg += [tuple(r) for r, y in zip(ep.query_refs.tolist(), ep.query_labels)
                    if y == 0]
            assert len(neg) == len(set(neg)) == 4 * 3 + 3 * 10

    def test_same_draws_before_giving_up(self):
        n = 7
        edges = [[i, j] for i in range(n) for j in range(i + 1, n) if (i, j) != (0, 1)]
        g = assign_split(make_graph(n, edges, np.zeros((n, 2))), (0.6, 0.2, 0.2),
                         "link", seed=0)
        corpus = Corpus(graphs=(g,))
        new = EpisodeSampler(corpus, "link", 2, 1, query_size=4, seed=1)
        ref = SetBasedSampler(corpus, "link", 2, 1, query_size=4, seed=1)
        with pytest.raises(DataError, match="dense") as a:
            new.sample()
        with pytest.raises(DataError, match="dense") as b:
            ref.sample()
        assert str(a.value) == str(b.value)
        assert new.rng.bit_generator.state == ref.rng.bit_generator.state

    @pytest.mark.parametrize("policy", ["pretrain", "eval"])
    def test_three_node_graph(self, policy):
        # a third of all draws have u == v and (0, 2) is the only non-edge,
        # so every episode ends in the limit error after the same draws
        g = make_graph(3, [[0, 1], [1, 2]], np.zeros((3, 2)),
                       edge_split=[TRAIN, TRAIN if policy == "pretrain" else TEST])
        corpus = Corpus(graphs=(g,))
        for seed in range(6):
            new = EpisodeSampler(corpus, "link", 2, 1, query_size=2, policy=policy, seed=seed)
            ref = SetBasedSampler(corpus, "link", 2, 1, query_size=2, policy=policy, seed=seed)
            with pytest.raises(DataError, match="dense") as a:
                new.sample()
            with pytest.raises(DataError, match="dense") as b:
                ref.sample()
            assert str(a.value) == str(b.value)
            assert new.rng.bit_generator.state == ref.rng.bit_generator.state


class PerLevelSampler(EpisodeSampler):
    """Reference node and graph samplers: one body per level, class counts
    and query pools built with Python loops and sets."""

    def _sample_node(self, k_shot):
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
            raise DataError(f"graph {gi}: only {len(ok)} classes")
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

    def _sample_graph(self, k_shot):
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
            raise DataError(f"only {len(ok)} graph classes")
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


def _draw(sampler, k):
    """An episode's arrays, or the kind of error drawing it raised."""
    try:
        ep = sampler.sample(k_shot=k)
    except DataError as exc:
        return ("error", "query pool" in str(exc))
    return (ep.graph_index, ep.support_refs, ep.support_labels, ep.query_refs,
            ep.query_labels, ep.class_ids, ep.aug_seed)


def _same_draw(a, b):
    return len(a) == len(b) and all(
        x == y if not isinstance(x, np.ndarray)
        else x.dtype == y.dtype and np.array_equal(x, y)
        for x, y in zip(a, b))


# class c of the oracle corpora relabelled to sparse ids out of label order,
# so a dense class id is neither a label nor a label's rank in 0..3
SPARSE_IDS = np.array([2 ** 40, 3, 40, 2 ** 40 + 1])


def _ring_graph(labels, seed, test_only=None):
    """A ring over nodes labelled `labels`, split 60/20/20; every node of
    class `test_only` is moved to the test split."""
    n = len(labels)
    feats = np.random.default_rng(seed).standard_normal((n, 3))
    ring = [[i, (i + 1) % n] for i in range(n)]
    g = assign_split(make_graph(n, ring, feats, node_labels=labels),
                     (0.6, 0.2, 0.2), "node", seed=seed)
    if test_only is None:
        return g
    split = np.where(labels == test_only, TEST, g.node_split)
    return make_graph(n, ring, feats, node_labels=labels, node_split=split)


def _labelled_graphs(ids, test_only=None):
    """40 three-node graphs over 4 uneven classes named by `ids`, split
    50/25/25; graphs 5 and 17 are node-level graphs that cannot serve the
    graph level. Extra graphs of class `test_only`, if given, are all
    tagged test."""
    labels = [ids[c] for c in [0, 0, 1, 2, 0, 1, 3, 0, 3, 2] * 4]
    graphs = [make_graph(3, [[0, 1], [1, 2]], np.full((3, 2), float(i)), graph_label=y)
              for i, y in enumerate(labels)]
    graphs = list(assign_graph_splits(Corpus(graphs=tuple(graphs)),
                                      (0.5, 0.25, 0.25), seed=4).graphs)
    nodes = _ring_graph(np.repeat(np.arange(4), [12, 6, 3, 9]), seed=2)
    graphs[5] = nodes
    graphs[17] = nodes
    if test_only is not None:
        graphs += [make_graph(3, [[0, 1], [1, 2]], np.zeros((3, 2)),
                              graph_label=test_only, graph_split_tag=TEST)
                   for _ in range(6)]
    return Corpus(graphs=tuple(graphs))


def _oracle_corpora():
    """Corpora keyed by case, each named `<level>` or `<level>-<variant>`."""
    # node level: uneven classes, so some (n, k) combinations cannot be served
    sizes = [12, 6, 3, 9]
    classes = np.repeat(np.arange(4), sizes)
    nodes = _ring_graph(classes, seed=2)
    node = Corpus(graphs=(nodes, assign_split(nodes, (0.5, 0.25, 0.25), "node", seed=3)))
    sparse = _ring_graph(SPARSE_IDS[classes], seed=2)
    # a fifth class with test nodes only: never drawn, never a query
    test_only = _ring_graph(np.concatenate([classes, np.full(8, 4)]), seed=5, test_only=4)
    # two graphs with other class sets and sizes: one sampler's draws
    # move between them, each with its own class index
    other = _ring_graph(np.repeat([40, 5, 2 ** 40], [4, 10, 8]), seed=6)
    return {
        "node": node,
        "node-sparse": Corpus(graphs=(sparse,)),
        "node-test-only": Corpus(graphs=(test_only,)),
        "node-two-graphs": Corpus(graphs=(nodes, other)),
        "graph": _labelled_graphs(np.arange(4)),
        "graph-sparse": _labelled_graphs(SPARSE_IDS),
        "graph-test-only": _labelled_graphs(np.arange(4), test_only=4),
    }


class TestLabelledSamplerMatchesPerLevelReference:
    CORPORA = _oracle_corpora()

    @pytest.mark.parametrize("policy", ["pretrain", "eval"])
    @pytest.mark.parametrize("level", sorted(CORPORA))
    def test_identical_episodes_and_errors(self, level, policy):
        corpus = self.CORPORA[level]
        level, _, variant = level.partition("-")
        outcomes, graphs_seen = set(), set()
        for seed in range(3):
            for n in (2, 3, 4):
                for q in (1, 4, 64):
                    new = EpisodeSampler(corpus, level, n, 2, query_size=q,
                                         policy=policy, seed=seed)
                    ref = PerLevelSampler(corpus, level, n, 2, query_size=q,
                                          policy=policy, seed=seed)
                    drawn_from = set()
                    for k in (1, 2, 3, 5, 1, 2):
                        a, b = _draw(new, k), _draw(ref, k)
                        assert _same_draw(a, b), (seed, n, q, k)
                        assert new.rng.bit_generator.state == ref.rng.bit_generator.state
                        outcomes.add(a[0] if a[0] == "error" else "episode")
                        if a[0] != "error":
                            drawn_from.add(a[0])
                    graphs_seen.add(frozenset(drawn_from))
        assert outcomes == {"episode", "error"}
        if variant == "two-graphs":
            assert frozenset({0, 1}) in graphs_seen

    def test_graph_level_skips_graphs_without_a_label(self):
        corpus = self.CORPORA["graph"]
        assert 5 not in corpus.supporting("graph")
        assert corpus.graphs[5].graph_split_tag is None
        s = EpisodeSampler(corpus, "graph", 2, 1, policy="eval", seed=0)
        for _ in range(20):
            ep = s.sample()
            assert not {5, 17} & set(ep.support_refs.tolist() + ep.query_refs.tolist())


class TestGraphEpisodes:
    def test_refs_are_corpus_indices(self, graph_corpus):
        s = EpisodeSampler(graph_corpus, "graph", 2, 3, seed=0)
        ep = s.sample()
        assert ep.graph_index == -1
        n = len(graph_corpus.graphs)
        assert np.all((0 <= ep.support_refs) & (ep.support_refs < n))
        tags = np.array([g.graph_split_tag for g in graph_corpus.graphs])
        assert np.all(tags[ep.support_refs] == TRAIN)

    def test_eval_queries_test_tagged(self, graph_corpus):
        s = EpisodeSampler(graph_corpus, "graph", 2, 3, policy="eval", seed=1)
        ep = s.sample()
        tags = np.array([g.graph_split_tag for g in graph_corpus.graphs])
        assert np.all(tags[ep.query_refs] == TEST)

    def test_labels_match_truth(self, graph_corpus):
        s = EpisodeSampler(graph_corpus, "graph", 2, 3, seed=2)
        ep = s.sample()
        truth = np.array([g.graph_label for g in graph_corpus.graphs])
        assert np.array_equal(truth[ep.support_refs], ep.class_ids[ep.support_labels])
        assert np.array_equal(truth[ep.query_refs], ep.class_ids[ep.query_labels])

    def test_untagged_corpus_rejected(self):
        graphs = tuple(
            make_graph(2, [[0, 1]], np.zeros((2, 2)), graph_label=i % 2) for i in range(8)
        )
        s = EpisodeSampler(Corpus(graphs=graphs), "graph", 2, 2, seed=0)
        # the failed build is not cached, so the second draw fails the same way
        for _ in range(2):
            with pytest.raises(ProtocolError, match="split tags"):
                s.sample()


class TestValidation:
    def test_unknown_level(self, node_corpus):
        with pytest.raises(DataError, match="level"):
            EpisodeSampler(node_corpus, "motif", 2, 2)

    def test_unknown_policy(self, node_corpus):
        with pytest.raises(DataError, match="policy"):
            EpisodeSampler(node_corpus, "node", 2, 2, policy="transductive")

    def test_level_without_support(self, graph_corpus):
        with pytest.raises(DataError, match="no graph supporting"):
            EpisodeSampler(graph_corpus, "node", 2, 2)


NOT_SIZES = [2.0, 2.5, np.float64(3.0), True, np.True_, "3", None]


class TestSizesMustBeIntegers:
    @pytest.mark.parametrize("value", NOT_SIZES, ids=repr)
    @pytest.mark.parametrize("field", ["n_way", "k_shot", "query_size"])
    def test_constructor_rejects(self, node_corpus, field, value):
        sizes = {"n_way": 2, "k_shot": 2, "query_size": 8, field: value}
        with pytest.raises(ProtocolError, match=f"{field} must be an integer"):
            EpisodeSampler(node_corpus, "node", **sizes)

    @pytest.mark.parametrize("value", [v for v in NOT_SIZES if v is not None], ids=repr)
    def test_sample_rejects(self, node_corpus, value):
        s = EpisodeSampler(node_corpus, "node", 2, 2, seed=0)
        state = s.rng.bit_generator.state
        with pytest.raises(ProtocolError, match="k_shot must be an integer"):
            s.sample(k_shot=value)
        assert s.rng.bit_generator.state == state

    @pytest.mark.parametrize("level", ["node", "link", "graph"])
    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8], ids=lambda t: t.__name__)
    def test_integral_sizes_keep_draws(self, node_corpus, link_corpus, graph_corpus,
                                       level, kind):
        corpus = {"node": node_corpus, "link": link_corpus, "graph": graph_corpus}[level]
        a = EpisodeSampler(corpus, level, kind(2), kind(3), query_size=kind(8), seed=1)
        b = EpisodeSampler(corpus, level, 2, 3, query_size=8, seed=1)
        for k in (None, 2, 4):
            assert _same_draw(_draw(a, None if k is None else kind(k)), _draw(b, k))
        assert a.rng.bit_generator.state == b.rng.bit_generator.state

    def test_shot_sweep_refuses_fractional_shots(self, node_corpus):
        cfg = ModelConfig(d=4, encoder_layers=1, transformer_layers=1, n_heads=2,
                          ffn_hidden=8)
        with pytest.raises(ProtocolError, match="k_shot must be an integer"):
            sweep_shots(node_corpus, init_params(cfg), cfg, "node", 2, ks=(2.5,))
