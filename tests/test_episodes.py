import numpy as np
import pytest

from gilt.episodes import NEGATIVE_RATIO, EpisodeSampler, round_half_up, shots_at
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


def _oracle_corpora():
    # node level: uneven classes, so some (n, k) combinations cannot be served
    sizes = [12, 6, 3, 9]
    labels = np.repeat(np.arange(4), sizes)
    n = len(labels)
    feats = np.random.default_rng(0).standard_normal((n, 3))
    ring = [[i, (i + 1) % n] for i in range(n)]
    nodes = assign_split(make_graph(n, ring, feats, node_labels=labels),
                         (0.6, 0.2, 0.2), "node", seed=2)
    node = Corpus(graphs=(nodes, assign_split(nodes, (0.5, 0.25, 0.25), "node", seed=3)))
    # graph level: 4 uneven classes, plus graphs that cannot serve the level
    graphs = [make_graph(3, [[0, 1], [1, 2]], np.full((3, 2), float(i)),
                         graph_label=[0, 0, 1, 2, 0, 1, 3, 0, 3, 2][i % 10])
              for i in range(40)]
    graphs = list(assign_graph_splits(Corpus(graphs=tuple(graphs)),
                                      (0.5, 0.25, 0.25), seed=4).graphs)
    graphs[5] = nodes
    graphs[17] = nodes
    return {"node": node, "graph": Corpus(graphs=tuple(graphs))}


class TestLabelledSamplerMatchesPerLevelReference:
    CORPORA = _oracle_corpora()

    @pytest.mark.parametrize("policy", ["pretrain", "eval"])
    @pytest.mark.parametrize("level", ["node", "graph"])
    def test_identical_episodes_and_errors(self, level, policy):
        corpus = self.CORPORA[level]
        outcomes = set()
        for seed in range(3):
            for n in (2, 3, 4):
                for q in (1, 4, 64):
                    new = EpisodeSampler(corpus, level, n, 2, query_size=q,
                                         policy=policy, seed=seed)
                    ref = PerLevelSampler(corpus, level, n, 2, query_size=q,
                                          policy=policy, seed=seed)
                    for k in (1, 2, 3, 5):
                        a, b = _draw(new, k), _draw(ref, k)
                        assert _same_draw(a, b), (seed, n, q, k)
                        assert new.rng.bit_generator.state == ref.rng.bit_generator.state
                        outcomes.add(a[0] if a[0] == "error" else "episode")
        assert outcomes == {"episode", "error"}

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
        with pytest.raises(DataError, match="split tags"):
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
