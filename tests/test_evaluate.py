import dataclasses
import json

import numpy as np
import pytest

from gilt.episodes import Episode, EpisodeSampler
from gilt.evaluate import (
    LeakageError,
    accuracy,
    append_results_row,
    assert_no_leakage,
    evaluate,
    hits_at_k,
    params_digest,
    roc_auc,
    sweep_shots,
    write_report,
    write_sweep,
)
from gilt.graphs import (
    TEST,
    TRAIN,
    VALID,
    Corpus,
    SyntheticSpec,
    assign_split,
    make_graph,
    make_synthetic,
)
from gilt.model import GraphBank, ModelConfig, init_params

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
        assert a.to_json() == b.to_json()
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
        assert reused.to_json() == fresh.to_json()
        # a truncated encoder is a different encoding too
        shallow = dataclasses.replace(cfg, encoder_layers=1)
        reused = evaluate(eval_corpus, b, shallow, "node", 2, 2,
                          episodes_per_run=2, seeds=(0,), bank=shared)
        fresh = evaluate(eval_corpus, b, shallow, "node", 2, 2,
                         episodes_per_run=2, seeds=(0,))
        assert reused.to_json() == fresh.to_json()

    def test_report_files(self, eval_corpus, tmp_path):
        arrays = init_params(CFG)
        rep = evaluate(eval_corpus, arrays, CFG, "node", 2, 2,
                       episodes_per_run=2, seeds=(0,))
        payload = json.loads(write_report(rep, tmp_path / "r.json").read_text())
        assert payload["level"] == "node"
        csv_path = tmp_path / "results.csv"
        append_results_row(rep, csv_path)
        append_results_row(rep, csv_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("level,")
        assert len(lines) == 3

    def test_sweep(self, eval_corpus, tmp_path):
        arrays = init_params(CFG)
        rows = sweep_shots(eval_corpus, arrays, CFG, "node", 2, ks=(1, 2),
                           episodes_per_run=2, seeds=(0, 1))
        assert [r["k_shot"] for r in rows] == [1, 2]
        path = write_sweep(rows, tmp_path / "sweep.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "k_shot,mean_accuracy,sd_accuracy"
        assert len(lines) == 3
