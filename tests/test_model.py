import numpy as np
import pytest
import scipy.sparse as sp

from gilt import autodiff as ad
from gilt.encoder import normalize_adjacency
from gilt.episodes import EpisodeSampler
from gilt.graphs import (
    TRAIN,
    Corpus,
    SyntheticSpec,
    assign_graph_splits,
    assign_split,
    make_graph,
    make_synthetic,
)
from gilt.model import (
    GraphBank,
    ModelConfig,
    episode_forward,
    episode_probs_and_loss,
    init_params,
    params_to_tensors,
)
from gilt.train import desk_preset

CFG = ModelConfig(d=4, encoder_layers=2, transformer_layers=1, n_heads=2,
                  ffn_hidden=8, dropout=0.0, seed=0)


@pytest.fixture(scope="module")
def node_setup():
    g = make_synthetic(SyntheticSpec(3, 20, 0.3, 0.05, 6, 2.0, 0.5, seed=0))
    g = assign_split(g, (0.6, 0.2, 0.2), "node", seed=1)
    corpus = Corpus(graphs=(g,))
    bank = GraphBank(corpus, CFG)
    sampler = EpisodeSampler(corpus, "node", 2, 2, query_size=6, seed=2)
    return bank, sampler


@pytest.fixture(scope="module")
def link_setup():
    g = make_synthetic(SyntheticSpec(3, 20, 0.3, 0.05, 6, 2.0, 0.5, seed=3))
    g = assign_split(g, (0.6, 0.2, 0.2), "link", seed=4)
    corpus = Corpus(graphs=(g,))
    return GraphBank(corpus, CFG), EpisodeSampler(corpus, "link", 2, 2,
                                                  query_size=8, seed=5)


@pytest.fixture(scope="module")
def graph_setup():
    graphs = []
    for i in range(16):
        spec = SyntheticSpec(2, 4, 0.6, 0.2, 6, 1.0, 0.4, seed=100 + i)
        g = make_synthetic(spec)
        graphs.append(make_graph(g.node_count, g.edges, g.features,
                                 graph_label=i % 2))
    corpus = assign_graph_splits(Corpus(graphs=tuple(graphs)), (0.5, 0.25, 0.25),
                                 seed=6)
    return GraphBank(corpus, CFG), EpisodeSampler(corpus, "graph", 2, 2,
                                                  query_size=4, seed=7)


class TestForward:
    def test_node_probs_well_formed(self, node_setup):
        bank, sampler = node_setup
        params = params_to_tensors(init_params(CFG))
        logp = episode_forward(bank, sampler.sample(), params, CFG)
        assert logp.values.shape[1] == 2
        assert np.all(np.isfinite(logp.values))
        assert np.max(np.abs(np.exp(logp.values).sum(axis=1) - 1.0)) < 1e-10

    def test_link_episode_runs(self, link_setup):
        bank, sampler = link_setup
        params = params_to_tensors(init_params(CFG))
        logp, loss = episode_probs_and_loss(bank, sampler.sample(), params, CFG)
        assert logp.values.shape[1] == 2
        assert np.isfinite(loss.values.item())

    def test_graph_episode_runs(self, graph_setup):
        bank, sampler = graph_setup
        params = params_to_tensors(init_params(CFG))
        ep = sampler.sample()
        logp = episode_forward(bank, ep, params, CFG)
        assert logp.values.shape == (ep.query_size, 2)
        assert np.max(np.abs(np.exp(logp.values).sum(axis=1) - 1.0)) < 1e-10

    def test_train_equals_eval_without_stochasticity(self, node_setup):
        bank, sampler = node_setup
        params = params_to_tensors(init_params(CFG))
        ep = sampler.sample()
        assert ep.feat_drop == 0.0 and ep.edge_drop == 0.0
        a = episode_forward(bank, ep, params, CFG, train=True)
        b = episode_forward(bank, ep, params, CFG, train=False)
        assert np.max(np.abs(a.values - b.values)) < 1e-12

    def test_same_episode_replays_identically_under_dropout(self, node_setup):
        bank, sampler_plain = node_setup
        cfg = ModelConfig(d=4, encoder_layers=2, transformer_layers=1, n_heads=2,
                          ffn_hidden=8, dropout=0.2, seed=0)
        sampler = EpisodeSampler(bank.corpus, "node", 2, 2, query_size=6,
                                 feat_drop=0.1, edge_drop=0.1, seed=11)
        params = params_to_tensors(init_params(cfg))
        ep = sampler.sample()
        a = episode_forward(bank, ep, params, cfg, train=True)
        b = episode_forward(bank, ep, params, cfg, train=True)
        assert a.values.tobytes() == b.values.tobytes()

    def test_float32_mode(self, node_setup):
        bank, sampler = node_setup
        cfg = ModelConfig(d=4, encoder_layers=1, transformer_layers=1, n_heads=2,
                          ffn_hidden=8, dropout=0.0, dtype="float32")
        bank32 = GraphBank(bank.corpus, cfg)
        params = params_to_tensors(init_params(cfg))
        probs = episode_forward(bank32, sampler.sample(), params, cfg)
        assert probs.values.dtype == np.float32


class TestLearnableProjection:
    def test_projection_param_exists_and_learns(self, node_setup):
        bank, sampler = node_setup
        cfg = ModelConfig(d=8, encoder_layers=1, transformer_layers=1, n_heads=2,
                          ffn_hidden=8, dropout=0.0,
                          align_mode="learnable-projection", intermediate_dim=6)
        arrays = init_params(cfg)
        assert arrays["proj_w"].shape == (6, 8)
        bank_lp = GraphBank(bank.corpus, cfg)
        params = params_to_tensors(arrays)
        ep = sampler.sample()
        _, loss = episode_probs_and_loss(bank_lp, ep, params, cfg, train=True)
        loss.backward()
        assert params["proj_w"].grad is not None
        assert np.any(params["proj_w"].grad != 0.0)


class TestGradients:
    def test_full_episode_grad_check(self, node_setup):
        bank, sampler = node_setup
        params = params_to_tensors(init_params(CFG))
        ep = sampler.sample()

        def loss():
            _, ell = episode_probs_and_loss(bank, ep, params, CFG, train=True)
            return ell

        report = ad.grad_check(loss, params, tol=1e-4, max_coords_per_param=6,
                               rng=np.random.default_rng(0))
        assert report.passed, report

    def test_grad_check_with_dropout_active(self, node_setup):
        # augmentation is reseeded per call, so finite differences see the
        # same masks and the check stays valid with dropout on
        bank, _ = node_setup
        cfg = ModelConfig(d=4, encoder_layers=2, transformer_layers=1, n_heads=2,
                          ffn_hidden=8, dropout=0.1, seed=1)
        sampler = EpisodeSampler(bank.corpus, "node", 2, 2, query_size=4,
                                 feat_drop=0.1, edge_drop=0.1, seed=13)
        params = params_to_tensors(init_params(cfg))
        ep = sampler.sample()

        def loss():
            _, ell = episode_probs_and_loss(bank, ep, params, cfg, train=True)
            return ell

        report = ad.grad_check(loss, params, tol=1e-4, max_coords_per_param=4,
                               rng=np.random.default_rng(1))
        assert report.passed, report


class TestEvalCache:
    def test_encoder_output_cached_per_graph(self, node_setup):
        bank, sampler = node_setup
        bank.clear_encoded()
        params = params_to_tensors(init_params(CFG))
        h1 = bank.encoded(0, params)
        h2 = bank.encoded(0, params)
        assert h1 is h2
        bank.clear_encoded()
        h3 = bank.encoded(0, params)
        assert h3 is not h1
        assert h3.values.tobytes() == h1.values.tobytes()

    def test_cache_matches_direct_compute(self, node_setup):
        bank, sampler = node_setup
        bank.clear_encoded()
        params = params_to_tensors(init_params(CFG))
        ep = sampler.sample()
        cached = episode_forward(bank, ep, params, CFG, train=False)
        fresh = episode_forward(bank, ep, params, CFG, train=True)
        assert np.max(np.abs(cached.values - fresh.values)) < 1e-12


def _tape_nodes(root) -> int:
    """Tensors reachable from `root` through the tape's parent links."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


class TestTapeBudget:
    """One desk-preset training episode (epoch 0: 10 shots, 64 queries,
    augmentation and dropout on) records at most this many tape nodes."""

    BUDGET = {"node": 100, "link": 105, "graph": 635}

    @pytest.fixture(scope="class")
    def desk(self):
        g = make_synthetic(SyntheticSpec(4, 40, 0.3, 0.05, 8, 2.0, 0.5, seed=20))
        g = assign_split(g, (0.6, 0.2, 0.2), "node", seed=21)
        g = assign_split(g, (0.6, 0.2, 0.2), "link", seed=22)
        # 15 train graphs per class: 40 support graphs plus 20 queries, the
        # shape of a desk graph episode on a 100-graph 60/20/20 corpus
        graphs = []
        for i in range(60):
            s = make_synthetic(SyntheticSpec(2, 4, 0.6, 0.2, 8, 1.0, 0.4, seed=200 + i))
            graphs.append(make_graph(s.node_count, s.edges, s.features,
                                     graph_label=i % 4, graph_split_tag=TRAIN))
        model_cfg, train_cfg = desk_preset()
        return {"node": Corpus(graphs=(g,)), "link": Corpus(graphs=(g,)),
                "graph": Corpus(graphs=tuple(graphs))}, model_cfg, train_cfg

    @pytest.mark.parametrize("level", ["node", "link", "graph"])
    def test_desk_episode_within_budget(self, desk, level):
        corpora, model_cfg, train_cfg = desk
        sampler = EpisodeSampler(
            corpora[level], level, n_way=2 if level == "link" else train_cfg.n_way,
            k_shot=train_cfg.shot_start, query_size=train_cfg.query_size,
            policy="pretrain", seed=0, feat_drop=train_cfg.feat_drop,
            edge_drop=train_cfg.edge_drop)
        params = params_to_tensors(init_params(model_cfg))
        bank = GraphBank(corpora[level], model_cfg)
        _, loss = episode_probs_and_loss(bank, sampler.sample(), params, model_cfg,
                                         train=True)
        assert _tape_nodes(loss) <= self.BUDGET[level]


class TestNoTransposeInEncoderHops:
    SPARSE = (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix,
              sp.csr_array, sp.csc_array, sp.coo_array)

    @pytest.fixture
    def transposes(self, monkeypatch):
        calls = []
        for cls in self.SPARSE:
            def counted(self, *args, _orig=cls.transpose, **kwargs):
                calls.append(type(self).__name__)
                return _orig(self, *args, **kwargs)
            monkeypatch.setattr(cls, "transpose", counted)
        return calls

    def test_counter_sees_a_transpose_backward(self, transposes):
        adj = normalize_adjacency(3, np.array([[0, 1], [1, 2]]))
        ad.const_matmul(adj, np.ones((3, 2)))
        assert transposes == ["csr_matrix"]

    def test_graph_training_step_builds_no_transpose(self, graph_setup, transposes):
        bank, _ = graph_setup
        sampler = EpisodeSampler(bank.corpus, "graph", 2, 2, query_size=4, seed=7,
                                 feat_drop=0.1, edge_drop=0.2)
        params = params_to_tensors(init_params(CFG))
        _, loss = episode_probs_and_loss(bank, sampler.sample(), params, CFG, train=True)
        loss.backward()
        assert all(p.grad is not None for p in params.values())
        assert transposes == []
