import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest

import gilt.evaluate as evaluate_module
from gilt.episodes import Episode, EpisodeSampler
from gilt.evaluate import (
    LeakageError,
    accuracy,
    assert_no_leakage,
    evaluate,
    hits_at_k,
    pack_episodes,
    params_digest,
    roc_auc,
    sweep_shots,
    write_reports,
)
from gilt.graphs import (
    TEST,
    TRAIN,
    VALID,
    Corpus,
    SyntheticSpec,
    assign_graph_splits,
    assign_split,
    make_graph,
    make_synthetic,
)
from gilt.model import (GraphBank, ModelConfig, batch_forward, init_params,
                        params_to_tensors)

CFG = ModelConfig(d=4, encoder_layers=2, transformer_layers=1, n_heads=2,
                  ffn_hidden=8, dropout=0.1)


def _noisy(arrays, seed, scale=0.5):
    # fresh encoder affines are the same for every seed; perturb them so two
    # models really encode differently
    rng = np.random.default_rng(seed)
    return {k: v + rng.uniform(-scale, scale, size=v.shape) for k, v in arrays.items()}


def brute_force_auc(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


class TestAccuracy:
    def test_exact_fraction(self):
        assert accuracy([0, 1, 2, 1], [0, 1, 1, 1]) == 0.75
        assert accuracy([5], [5]) == 1.0

    def test_validates_input(self):
        with pytest.raises(ValueError):
            accuracy([0, 1], [0])
        with pytest.raises(ValueError):
            accuracy([], [])


class TestRocAuc:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 200))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        # quantized scores force ties through both code paths
        scores = np.round(rng.standard_normal(n), 1)
        assert abs(roc_auc(scores, labels) - brute_force_auc(scores, labels)) < 1e-12

    def test_perfect_and_inverted(self):
        labels = np.array([0, 0, 1, 1])
        assert roc_auc(np.array([0.1, 0.2, 0.8, 0.9]), labels) == 1.0
        assert roc_auc(np.array([0.9, 0.8, 0.2, 0.1]), labels) == 0.0

    def test_all_tied_is_half(self):
        assert roc_auc(np.ones(6), np.array([0, 1, 0, 1, 0, 1])) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            roc_auc(np.ones(3), np.array([1, 1, 1]))


class TestHitsAtK:
    def test_hand_case(self):
        scores = np.array([0.9, 0.8, 0.3, 0.7, 0.5, 0.1])
        labels = np.array([1, 1, 1, 0, 0, 0])
        # 2nd largest negative is 0.5; positives above it: 0.9, 0.8
        assert hits_at_k(scores, labels, 2) == pytest.approx(2.0 / 3.0)
        # largest negative is 0.7; only 0.9 and 0.8 beat it
        assert hits_at_k(scores, labels, 1) == pytest.approx(2.0 / 3.0)

    def test_strictness_at_threshold(self):
        scores = np.array([0.5, 0.5])
        labels = np.array([1, 0])
        assert hits_at_k(scores, labels, 1) == 0.0

    def test_monotone_transform_invariant(self):
        rng = np.random.default_rng(0)
        scores = rng.standard_normal(50)
        labels = rng.integers(0, 2, size=50)
        labels[:2] = [0, 1]
        for k in (1, 5, 10):
            base = hits_at_k(scores, labels, k)
            assert hits_at_k(np.exp(scores), labels, k) == base
            assert hits_at_k(3.0 * scores + 7.0, labels, k) == base

    def test_fewer_negatives_than_k(self):
        assert hits_at_k(np.array([0.2, 0.9]), np.array([1, 0]), k=5) == 1.0

    def test_validates(self):
        with pytest.raises(ValueError):
            hits_at_k(np.ones(2), np.array([1, 0]), 0)
        with pytest.raises(ValueError, match="positive"):
            hits_at_k(np.ones(2), np.array([0, 0]), 1)


def leaky_node_graph():
    split = np.array([TRAIN] * 6 + [VALID] * 2 + [TEST] * 4, dtype=np.int8)
    return make_graph(12, [[0, 1], [1, 2], [9, 10]],
                      np.random.default_rng(0).standard_normal((12, 3)),
                      node_labels=np.arange(12) % 2, node_split=split)


def node_episode(support, query):
    return Episode(level="node", n_way=2, k_shot=1, graph_index=0,
                   support_refs=np.asarray(support),
                   support_labels=np.asarray([0, 1][:len(support)]),
                   query_refs=np.asarray(query),
                   query_labels=np.asarray([0, 1][:len(query)]),
                   class_ids=np.array([0, 1]))


class TestLeakageGuard:
    def test_clean_episode_passes(self):
        corpus = Corpus(graphs=(leaky_node_graph(),))
        assert_no_leakage(node_episode([0, 1], [8, 9]), corpus)

    def test_support_from_test_split_aborts(self):
        corpus = Corpus(graphs=(leaky_node_graph(),))
        with pytest.raises(LeakageError, match="support node"):
            assert_no_leakage(node_episode([0, 9], [8, 10]), corpus)

    def test_query_from_train_split_aborts(self):
        corpus = Corpus(graphs=(leaky_node_graph(),))
        with pytest.raises(LeakageError, match="query node"):
            assert_no_leakage(node_episode([0, 1], [2, 9]), corpus)

    def test_link_positive_on_wrong_side_aborts(self):
        g = make_graph(6, [[0, 1], [1, 2], [2, 3], [3, 4]], np.zeros((6, 2)))
        g = assign_split(g, (0.5, 0.25, 0.25), "link", seed=0)
        corpus = Corpus(graphs=(g,))
        test_pair = tuple(g.edges[np.nonzero(g.edge_split == TEST)[0][0]])
        ep = Episode(level="link", n_way=2, k_shot=1, graph_index=0,
                     support_refs=np.array([test_pair]),
                     support_labels=np.array([1]),
                     query_refs=np.array([test_pair]),
                     query_labels=np.array([1]),
                     class_ids=np.array([0, 1]))
        with pytest.raises(LeakageError, match="positive pair"):
            assert_no_leakage(ep, corpus)

    def test_link_negative_that_is_an_edge_aborts(self):
        g = make_graph(6, [[0, 1], [1, 2], [2, 3], [3, 4]], np.zeros((6, 2)))
        g = assign_split(g, (0.5, 0.25, 0.25), "link", seed=0)
        corpus = Corpus(graphs=(g,))
        train_pair = tuple(g.edges[np.nonzero(g.edge_split == TRAIN)[0][0]])
        test_pair = tuple(g.edges[np.nonzero(g.edge_split == TEST)[0][0]])
        ep = Episode(level="link", n_way=2, k_shot=1, graph_index=0,
                     support_refs=np.array([train_pair]),
                     support_labels=np.array([1]),
                     query_refs=np.array([test_pair]),
                     query_labels=np.array([0]),
                     class_ids=np.array([0, 1]))
        with pytest.raises(LeakageError, match="real edge"):
            assert_no_leakage(ep, corpus)

    def test_sampled_eval_episodes_always_pass(self):
        g = make_synthetic(SyntheticSpec(3, 30, 0.3, 0.05, 6, 2.0, 0.5, seed=1))
        g = assign_split(g, (0.6, 0.2, 0.2), "node", seed=2)
        corpus = Corpus(graphs=(g,))
        sampler = EpisodeSampler(corpus, "node", 3, 2, policy="eval", seed=3)
        for _ in range(20):
            assert_no_leakage(sampler.sample(), corpus)


def tagged_graph_corpus():
    # graph i has tag TAGS[i]; graph 6 is a node-level graph with no tag
    tags = [TRAIN, TRAIN, TRAIN, VALID, TEST, TEST]
    graphs = [make_graph(2, [[0, 1]], np.zeros((2, 2)), graph_label=i % 2,
                         graph_split_tag=t) for i, t in enumerate(tags)]
    return Corpus(graphs=tuple(graphs) + (leaky_node_graph(),))


def graph_episode(support, query):
    return Episode(level="graph", n_way=2, k_shot=1, graph_index=-1,
                   support_refs=np.asarray(support),
                   support_labels=np.asarray([0, 1][:len(support)]),
                   query_refs=np.asarray(query),
                   query_labels=np.asarray([0, 1][:len(query)]),
                   class_ids=np.array([0, 1]))


class TestGraphLeakageGuard:
    def test_clean_episode_passes(self):
        assert_no_leakage(graph_episode([0, 1], [4, 5]), tagged_graph_corpus())

    @pytest.mark.parametrize("support, query, message", [
        ([0, 4], [5], "support graph"),     # support graph from the test split
        ([0, 3], [5], "support graph"),     # support graph from the valid split
        ([0, 6], [5], "support graph"),     # support graph with no tag
        ([0, 1], [2, 5], "query graph"),    # query graph from the train split
        ([0, 1], [3], "query graph"),       # query graph from the valid split
    ])
    def test_wrong_side_aborts(self, support, query, message):
        with pytest.raises(LeakageError, match=message):
            assert_no_leakage(graph_episode(support, query), tagged_graph_corpus())

    def test_sampled_graph_eval_episodes_always_pass(self):
        graphs = tuple(make_graph(3, [[0, 1], [1, 2]], np.zeros((3, 2)), graph_label=i % 3)
                       for i in range(30))
        corpus = assign_graph_splits(Corpus(graphs=graphs), (0.5, 0.25, 0.25), seed=1)
        sampler = EpisodeSampler(corpus, "graph", 3, 2, policy="eval", seed=2)
        for _ in range(20):
            assert_no_leakage(sampler.sample(), corpus)


def link_episode(support, support_labels, query, query_labels):
    return Episode(level="link", n_way=2, k_shot=1, graph_index=0,
                   support_refs=np.asarray(support).reshape(-1, 2),
                   support_labels=np.asarray(support_labels),
                   query_refs=np.asarray(query).reshape(-1, 2),
                   query_labels=np.asarray(query_labels),
                   class_ids=np.array([0, 1]))


def split_path_graph():
    # path 0-1-...-7; edge row i is (i, i+1)
    split = np.array([TRAIN, TRAIN, TRAIN, VALID, VALID, TEST, TEST], dtype=np.int8)
    return make_graph(8, [[i, i + 1] for i in range(7)], np.zeros((8, 2)),
                      edge_split=split)


class TestLinkLeakageGuard:
    def test_clean_episode_passes_in_either_order(self):
        corpus = Corpus(graphs=(split_path_graph(),))
        assert_no_leakage(link_episode([[0, 1], [2, 1], [0, 7]], [1, 1, 0],
                                       [[6, 5], [6, 7], [1, 4]], [1, 1, 0]), corpus)

    @pytest.mark.parametrize("support, labels, query, qlabels, message", [
        # a VALID-split positive, in support and in query
        ([[3, 4]], [1], [[5, 6]], [1], r"positive pair \(3, 4\) not a 0-split"),
        ([[0, 1]], [1], [[4, 5]], [1], r"positive pair \(4, 5\) not a 2-split"),
        # a TEST edge given reversed as a support positive
        ([[6, 5]], [1], [[5, 6]], [1], r"positive pair \(5, 6\) not a 0-split"),
        # a non-edge given as a positive
        ([[0, 1]], [1], [[0, 7]], [1], r"positive pair \(0, 7\) not a 2-split"),
        # a reversed negative that is a real edge, in support and in query
        ([[0, 1], [4, 3]], [1, 0], [[5, 6]], [1], r"negative pair \(3, 4\) is a real edge"),
        ([[0, 1]], [1], [[5, 6], [2, 1]], [1, 0], r"negative pair \(1, 2\) is a real edge"),
    ])
    def test_rejects_and_names_pair(self, support, labels, query, qlabels, message):
        corpus = Corpus(graphs=(split_path_graph(),))
        with pytest.raises(LeakageError, match=message):
            assert_no_leakage(link_episode(support, labels, query, qlabels), corpus)

    def test_first_offending_pair_is_named(self):
        corpus = Corpus(graphs=(split_path_graph(),))
        # three offenders: the guard reports the first, support before query
        ep = link_episode([[0, 1], [2, 3], [3, 4]], [1, 0, 1], [[4, 5]], [1])
        with pytest.raises(LeakageError, match=r"negative pair \(2, 3\)"):
            assert_no_leakage(ep, corpus)

    def test_resplit_graph_checked_against_its_own_split(self):
        g = split_path_graph()
        ep = link_episode([[0, 1]], [1], [[5, 6]], [1])
        assert_no_leakage(ep, Corpus(graphs=(g,)))   # builds g's edge index
        flipped = dataclasses.replace(g, edge_split=g.edge_split[::-1].copy())
        with pytest.raises(LeakageError, match=r"positive pair \(0, 1\) not a 0-split"):
            assert_no_leakage(ep, Corpus(graphs=(flipped,)))
        resplit = assign_split(g, (0.6, 0.2, 0.2), "link", seed=1)
        moved = np.nonzero((resplit.edge_split == TRAIN) & (g.edge_split != TRAIN))[0]
        test_row = np.nonzero(resplit.edge_split == TEST)[0][0]
        ep = link_episode(g.edges[moved[:1]], [1], g.edges[[test_row]], [1])
        assert_no_leakage(ep, Corpus(graphs=(resplit,)))
        with pytest.raises(LeakageError, match="not a 0-split"):
            assert_no_leakage(ep, Corpus(graphs=(g,)))

    def test_sampled_link_eval_episodes_always_pass(self):
        g = make_synthetic(SyntheticSpec(3, 30, 0.3, 0.05, 6, 2.0, 0.5, seed=1))
        g = assign_split(g, (0.6, 0.2, 0.2), "link", seed=2)
        corpus = Corpus(graphs=(g,))
        sampler = EpisodeSampler(corpus, "link", 2, 3, query_size=64,
                                 policy="eval", seed=3)
        for _ in range(20):
            assert_no_leakage(sampler.sample(), corpus)


class TestParamsDigest:
    def test_sensitive_to_content(self):
        a = {"w": np.arange(4.0)}
        b = {"w": np.arange(4.0)}
        assert params_digest(a) == params_digest(b)
        b["w"] = b["w"] + 1e-12
        assert params_digest(a) != params_digest(b)

    def test_name_matters(self):
        assert params_digest({"a": np.ones(2)}) != params_digest({"b": np.ones(2)})


@pytest.fixture(scope="module")
def eval_corpus():
    g = make_synthetic(SyntheticSpec(3, 30, 0.3, 0.05, 6, 2.5, 0.5, seed=4))
    g = assign_split(g, (0.6, 0.2, 0.2), "node", seed=5)
    g = assign_split(g, (0.6, 0.2, 0.2), "link", seed=6)
    return Corpus(graphs=(g,))


class TestEvaluateProtocol:
    def test_node_report_well_formed(self, eval_corpus):
        arrays = init_params(CFG)
        rep = evaluate(eval_corpus, arrays, CFG, "node", 2, 2,
                       episodes_per_run=3, seeds=(0, 1, 2))
        assert len(rep.per_run) == 3
        assert 0.0 <= rep.mean_accuracy <= 1.0
        assert rep.sd_accuracy >= 0.0
        assert np.isnan(rep.mean_auc)

    def test_link_report_has_ranking_metrics(self, eval_corpus):
        arrays = init_params(CFG)
        rep = evaluate(eval_corpus, arrays, CFG, "link", 2, 2,
                       episodes_per_run=3, seeds=(0, 1))
        assert 0.0 <= rep.mean_auc <= 1.0
        assert 0.0 <= rep.mean_hits <= 1.0

    def test_deterministic_and_non_mutating(self, eval_corpus):
        arrays = init_params(CFG)
        before = params_digest(arrays)
        a = evaluate(eval_corpus, arrays, CFG, "node", 2, 2,
                     episodes_per_run=2, seeds=(0, 1))
        b = evaluate(eval_corpus, arrays, CFG, "node", 2, 2,
                     episodes_per_run=2, seeds=(0, 1))
        assert a.to_dict() == b.to_dict()
        assert params_digest(arrays) == before

    def test_shared_bank_never_serves_another_models_encodings(self, eval_corpus):
        cfg = dataclasses.replace(CFG, seed=3)
        a = _noisy(init_params(cfg), seed=1)
        b = _noisy(init_params(cfg), seed=2)
        shared = GraphBank(eval_corpus, cfg)
        evaluate(eval_corpus, a, cfg, "node", 2, 2, episodes_per_run=2,
                 seeds=(0,), bank=shared)
        reused = evaluate(eval_corpus, b, cfg, "node", 2, 2, episodes_per_run=2,
                          seeds=(0,), bank=shared)
        fresh = evaluate(eval_corpus, b, cfg, "node", 2, 2, episodes_per_run=2,
                         seeds=(0,))
        assert reused.to_dict() == fresh.to_dict()
        # a bank built for another cfg must not serve this one: a truncated
        # encoder, other prepared features, another prepared width
        for change in ({"encoder_layers": 1}, {"align_mode": "learnable-projection"},
                       {"d": 6}):
            other = dataclasses.replace(cfg, **change)
            c = _noisy(init_params(other), seed=2)
            reused = evaluate(eval_corpus, c, other, "node", 2, 2,
                              episodes_per_run=2, seeds=(0,), bank=shared)
            fresh = evaluate(eval_corpus, c, other, "node", 2, 2,
                             episodes_per_run=2, seeds=(0,))
            assert reused.to_dict() == fresh.to_dict(), change

    def test_report_files(self, eval_corpus, tmp_path):
        arrays = init_params(CFG)
        rep = evaluate(eval_corpus, arrays, CFG, "node", 2, 2,
                       episodes_per_run=2, seeds=(0,))
        assert np.isnan(rep.mean_auc)  # in memory a missing metric stays NaN

        def no_constant(name):
            raise ValueError(f"{name} is not strict JSON")

        text = write_reports([rep, rep], tmp_path / "r.json").read_text()
        payload = json.loads(text, parse_constant=no_constant)
        assert len(payload) == 2 and payload[0] == payload[1]
        assert payload[0]["level"] == "node"
        for name in ("mean_auc", "sd_auc", "mean_hits", "sd_hits"):
            assert payload[0][name] is None
        assert payload[0]["per_run"] == rep.per_run

    def test_sweep(self, eval_corpus):
        arrays = init_params(CFG)
        reports = sweep_shots(eval_corpus, arrays, CFG, "link", 2, ks=(1, 2),
                              episodes_per_run=2, seeds=(0, 1), hits_k=3)
        assert [r.k_shot for r in reports] == [1, 2]
        for k, rep in zip((1, 2), reports):
            alone = evaluate(eval_corpus, arrays, CFG, "link", 2, k,
                             episodes_per_run=2, seeds=(0, 1), hits_k=3)
            assert rep.to_dict() == alone.to_dict()
            assert rep.hits_k == 3 and np.isfinite(rep.mean_auc)


class TestPackEpisodes:
    @staticmethod
    def _episodes(queries, support=4):
        return [SimpleNamespace(support_size=support, query_size=q) for q in queries]

    @staticmethod
    def _shape(e):
        return e.support_size, e.query_size

    def test_packs_keep_order_shape_and_budget(self):
        # rows S + Q: 10 x 5, 6, 6, 64, 7, 7 against a 40-row budget
        episodes = self._episodes([6, 6, 6, 6, 6, 2, 2, 60, 3, 3])
        row_bytes, budget = 8, 8 * 40
        packs = pack_episodes(episodes, row_bytes, budget)
        assert [[e.query_size for e in p] for p in packs] == [
            [6, 6, 6, 6], [6], [2, 2], [60], [3, 3]]
        assert [e for p in packs for e in p] == episodes
        for p in packs:
            assert len({self._shape(e) for e in p}) == 1
            assert len(p) * sum(self._shape(p[0])) * row_bytes <= budget or len(p) == 1
        # a pack closes only where the shape changes or the budget would break
        for p, following in zip(packs, packs[1:]):
            assert (self._shape(following[0]) != self._shape(p[0])
                    or (len(p) + 1) * sum(self._shape(p[0])) * row_bytes > budget)

    def test_support_size_splits_packs_too(self):
        episodes = self._episodes([6, 6], support=4) + self._episodes([6], support=2)
        assert [len(p) for p in pack_episodes(episodes, 8, 8 * 1000)] == [2, 1]

    def test_episode_over_the_budget_runs_alone(self):
        episodes = self._episodes([100, 100, 1])
        assert [len(p) for p in pack_episodes(episodes, 8, 8 * 50)] == [1, 1, 1]
        assert pack_episodes(self._episodes([]), 8, 8 * 50) == []


def _runs_alone(corpus, arrays, cfg, level, n_way, k_shot, episodes_per_run, seeds):
    """The protocol's per-run results with every episode run as a batch of
    one, and each episode's row count S + Q."""
    bank = GraphBank(corpus, cfg)
    params = params_to_tensors(arrays, requires_grad=False)
    runs, rows = [], []
    for seed in seeds:
        sampler = EpisodeSampler(corpus, level, n_way=n_way, k_shot=k_shot,
                                 query_size=2048, policy="eval", seed=[997, seed])
        accs, aucs, hits = [], [], []
        for _ in range(episodes_per_run):
            ep = sampler.sample()
            rows.append(ep.support_size + ep.query_size)
            logp = batch_forward(bank, [ep], params).values[0]
            accs.append(accuracy(np.argmax(logp, axis=1), ep.query_labels))
            if level == "link":
                aucs.append(roc_auc(logp[:, 1], ep.query_labels))
                hits.append(hits_at_k(logp[:, 1], ep.query_labels, 10))
        run = {"seed": seed, "accuracy": float(np.mean(accs))}
        if level == "link":
            run["auc"] = float(np.mean(aucs))
            run["hits"] = float(np.mean(hits))
        runs.append(run)
    return runs, rows


@pytest.fixture(scope="module")
def pack_corpora():
    # graphs of three sizes, and graph classes chosen two of three, so the
    # episodes of one run differ in query count
    graphs = []
    for i, per_class in enumerate((16, 24, 32)):
        g = make_synthetic(SyntheticSpec(3, per_class, 0.3, 0.05, 6, 2.5, 0.5,
                                         seed=20 + i))
        g = assign_split(g, (0.6, 0.2, 0.2), "node", seed=30 + i)
        graphs.append(assign_split(g, (0.6, 0.2, 0.2), "link", seed=40 + i))
    small = []
    for i in range(30):
        p = 0.2 + 0.3 * (i % 3)
        s = make_synthetic(SyntheticSpec(2, 4 + i % 2, p, p / 4, 5, 1.0, 0.4,
                                         seed=400 + i))
        small.append(make_graph(s.node_count, s.edges, s.features, graph_label=i % 3))
    labelled = assign_graph_splits(Corpus(graphs=tuple(small)), (0.5, 0.25, 0.25),
                                   seed=6)
    corpus = Corpus(graphs=tuple(graphs))
    return {"node": corpus, "link": corpus, "graph": labelled}


class TestPackedEvaluation:
    """A run's episodes run in packs, one forward each, and its results and
    every log-probability are those of its episodes run one by one, bit for
    bit, also when the episodes of a run differ in query count."""

    WAYS = {"node": 3, "link": 2, "graph": 2}

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("level", ["node", "link", "graph"])
    def test_runs_equal_episodes_alone(self, pack_corpora, monkeypatch, level, dtype):
        corpus = pack_corpora[level]
        cfg = dataclasses.replace(CFG, dtype=dtype)
        arrays = {k: v.astype(dtype) for k, v in _noisy(init_params(cfg), seed=5).items()}
        seeds, n = (0, 1), 8
        want, rows = _runs_alone(corpus, arrays, cfg, level, self.WAYS[level], 2, n, seeds)
        assert len(set(rows)) > 1, "a run's episodes should differ in query count"
        # room for two of the largest episodes, so the budget cuts packs too
        row_bytes = 2 * cfg.d * np.dtype(dtype).itemsize
        monkeypatch.setattr(evaluate_module, "PACK_BYTES", 2 * max(rows) * row_bytes)
        packs = []

        def recorded(bank, episodes, *args, **kwargs):
            packs.append(len(episodes))
            logp = batch_forward(bank, episodes, *args, **kwargs)
            for ep, got in zip(episodes, logp.values):
                alone = batch_forward(bank, [ep], *args, **kwargs).values[0]
                assert got[:ep.query_size].tobytes() == alone.tobytes()
            return logp

        monkeypatch.setattr(evaluate_module, "batch_forward", recorded)
        got = evaluate(corpus, arrays, cfg, level, self.WAYS[level], 2,
                       episodes_per_run=n, seeds=seeds)
        assert got.per_run == want
        assert sum(packs) == n * len(seeds) and len(packs) >= 2 * len(seeds)
        assert max(packs) > 1, "no pack held two episodes"
        assert len({r["accuracy"] for r in want}) > 1  # real predictions, not a constant

    @pytest.mark.parametrize("at", [0, 2, 5])
    @pytest.mark.parametrize("level", ["node", "link"])
    def test_a_leaking_episode_anywhere_aborts_the_run(self, pack_corpora, monkeypatch,
                                                       level, at):
        real = EpisodeSampler.sample
        drawn, forwards = [], []

        def leaky(self, *args, **kwargs):
            ep = real(self, *args, **kwargs)
            drawn.append(ep)
            if len(drawn) == at + 1:  # queries drawn from the train side
                ep = dataclasses.replace(ep, query_refs=ep.support_refs,
                                         query_labels=ep.support_labels)
            return ep

        monkeypatch.setattr(EpisodeSampler, "sample", leaky)
        monkeypatch.setattr(evaluate_module, "batch_forward",
                            lambda *args, **kwargs: forwards.append(args))
        with pytest.raises(LeakageError):
            evaluate(pack_corpora[level], init_params(CFG), CFG, level,
                     self.WAYS[level], 2, episodes_per_run=6, seeds=(0,))
        assert len(drawn) == 6
        assert not forwards, "an episode ran before the run was checked"
