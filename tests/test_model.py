import dataclasses
import inspect

import numpy as np
import pytest
import scipy.sparse as sp

from gilt import autodiff as ad
from gilt import evaluate as evaluate_module
from gilt import model
from gilt import train as train_module
from gilt.encoder import encode, normalize_adjacency
from gilt.episodes import Episode, EpisodeSampler
from gilt.evaluate import evaluate
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
    batch_forward,
    batch_probs_and_loss,
    episode_probs_and_loss,
    init_params,
    params_to_tensors,
)
from gilt.train import desk_preset

CFG = ModelConfig(d=4, encoder_layers=2, transformer_layers=1, n_heads=2,
                  ffn_hidden=8, dropout=0.0, seed=0)


def episode_forward(bank, episode, params, train=False):
    """Class log-probabilities [Q x n_way] of one episode: the batch forward
    of a batch of one, its batch axis summed away."""
    return ad.sum_(batch_forward(bank, [episode], params, train=train), axis=0)


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
        logp = episode_forward(bank, sampler.sample(), params)
        assert logp.values.shape[1] == 2
        assert np.all(np.isfinite(logp.values))
        assert np.max(np.abs(np.exp(logp.values).sum(axis=1) - 1.0)) < 1e-10

    def test_link_episode_runs(self, link_setup):
        bank, sampler = link_setup
        params = params_to_tensors(init_params(CFG))
        logp, loss = episode_probs_and_loss(bank, sampler.sample(), params)
        assert logp.values.shape[1] == 2
        assert np.isfinite(loss.values.item())

    def test_graph_episode_runs(self, graph_setup):
        bank, sampler = graph_setup
        params = params_to_tensors(init_params(CFG))
        ep = sampler.sample()
        logp = episode_forward(bank, ep, params)
        assert logp.values.shape == (ep.query_size, 2)
        assert np.max(np.abs(np.exp(logp.values).sum(axis=1) - 1.0)) < 1e-10

    def test_train_equals_eval_without_stochasticity(self, node_setup):
        bank, sampler = node_setup
        params = params_to_tensors(init_params(CFG))
        ep = sampler.sample()
        assert ep.feat_drop == 0.0 and ep.edge_drop == 0.0
        a = episode_forward(bank, ep, params, train=True)
        b = episode_forward(bank, ep, params, train=False)
        assert np.max(np.abs(a.values - b.values)) < 1e-12

    def test_same_episode_replays_identically_under_dropout(self, node_setup):
        cfg = ModelConfig(d=4, encoder_layers=2, transformer_layers=1, n_heads=2,
                          ffn_hidden=8, dropout=0.2, seed=0)
        bank = GraphBank(node_setup[0].corpus, cfg)
        sampler = EpisodeSampler(bank.corpus, "node", 2, 2, query_size=6,
                                 feat_drop=0.1, edge_drop=0.1, seed=11)
        params = params_to_tensors(init_params(cfg))
        ep = sampler.sample()
        a = episode_forward(bank, ep, params, train=True)
        b = episode_forward(bank, ep, params, train=True)
        assert a.values.tobytes() == b.values.tobytes()

    def test_keep_mask_batched_draw_matches_per_slice_draws(self):
        # one (heads, rows, cols) draw equals each head's draw in turn, and
        # every entry is 0 or 1/(1-p)
        batched = model._keep_mask(np.random.default_rng(8), (3, 4, 5), 0.5, np.float32)
        rng = np.random.default_rng(8)
        sliced = [model._keep_mask(rng, (4, 5), 0.5, np.float32) for _ in range(3)]
        np.testing.assert_array_equal(batched, np.stack(sliced))
        assert batched.dtype == np.float32 and set(np.unique(batched)) == {0.0, 2.0}

    def test_float32_mode(self, node_setup):
        bank, sampler = node_setup
        cfg = ModelConfig(d=4, encoder_layers=1, transformer_layers=1, n_heads=2,
                          ffn_hidden=8, dropout=0.0, dtype="float32")
        bank32 = GraphBank(bank.corpus, cfg)
        params = params_to_tensors(init_params(cfg))
        probs = episode_forward(bank32, sampler.sample(), params)
        assert probs.values.dtype == np.float32


class TestBatchForward:
    """A batch runs as one forward and equals its episodes run alone: the
    loss is the mean of theirs, each per-episode loss and log-probability
    row is theirs, and every parameter gradient is the mean of theirs. One
    episode's queries are cut short, so its pad rows run."""

    TOL = {"float64": 1e-12, "float32": 1e-5}

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("level", ["node", "link", "graph"])
    def test_matches_episodes_alone(self, node_setup, link_setup, graph_setup, level,
                                    dtype):
        setup = {"node": node_setup, "link": link_setup, "graph": graph_setup}[level]
        cfg = ModelConfig(d=4, encoder_layers=2, transformer_layers=2, n_heads=2,
                          ffn_hidden=8, dropout=0.2, dtype=dtype, seed=1)
        bank = GraphBank(setup[0].corpus, cfg)
        sampler = EpisodeSampler(bank.corpus, level, 2, 2,
                                 query_size=setup[1].query_size, feat_drop=0.1,
                                 edge_drop=0.1, seed=17)
        episodes = [sampler.sample() for _ in range(3)]
        short = episodes[1]
        keep = short.query_size // 2
        episodes[1] = dataclasses.replace(short, query_refs=short.query_refs[:keep],
                                          query_labels=short.query_labels[:keep])
        # off the init, so that no path carries a structurally zero gradient
        rng = np.random.default_rng(3)
        arrays = {k: a + rng.normal(0.0, 0.1, a.shape).astype(dtype)
                  for k, a in init_params(cfg).items()}
        tol = self.TOL[dtype]

        params = params_to_tensors(arrays)
        logp, loss, per_episode = batch_probs_and_loss(bank, episodes, params, train=True)
        loss.backward()
        assert logp.shape == (3, max(ep.query_size for ep in episodes), 2)

        alone = params_to_tensors(arrays)
        total = None
        for b, ep in enumerate(episodes):
            logp_b, loss_b = episode_probs_and_loss(bank, ep, alone, train=True)
            _assert_close(logp.values[b, :ep.query_size], logp_b.values, tol)
            assert abs(per_episode[b] - loss_b.values) <= tol * abs(loss_b.values)
            total = loss_b if total is None else ad.add(total, loss_b)
        mean = ad.mul(total, 1.0 / len(episodes))
        mean.backward()
        assert abs(loss.values - mean.values) <= tol * abs(mean.values)
        for name, p in alone.items():
            assert p.grad is not None, name
            _assert_close(params[name].grad, p.grad, tol)

    def test_batch_masks_are_each_episodes_draw(self):
        # an episode with the batch's most queries keeps its masks as drawn;
        # a shorter one's stage-two and FFN masks get rows of 1 at the end
        cfg = ModelConfig(d=4, transformer_layers=2, n_heads=2, ffn_hidden=8,
                          dropout=0.2)
        q_sizes = [5, 3, 5]
        masks = model._batch_masks([np.random.default_rng(b) for b in range(3)], cfg,
                                   4, q_sizes)
        for b, q in enumerate(q_sizes):
            drawn = model._transformer_masks(np.random.default_rng(b), cfg, 4, q)
            for (m1, m2, m3), (d1, d2, d3) in zip(masks, drawn):
                assert m1[b].tobytes() == d1.tobytes()
                assert m2[b, :, :q].tobytes() == d2.tobytes()
                assert m3[b, :4 + q].tobytes() == d3.tobytes()
                assert np.all(m2[b, :, q:] == 1.0) and np.all(m3[b, 4 + q:] == 1.0)

    def test_batch_must_share_level_n_way_and_support_size(self, node_setup):
        bank, sampler = node_setup
        params = params_to_tensors(init_params(CFG))
        episodes = [sampler.sample(), sampler.sample(k_shot=1)]
        with pytest.raises(ValueError, match="support size"):
            batch_probs_and_loss(bank, episodes, params)


def test_no_forward_takes_a_bank_and_a_config():
    # a forward's config is its bank's: a second config argument could
    # disagree with the one the bank's caches were built with
    funcs = [f for _, f in inspect.getmembers(model, inspect.isfunction)
             if f.__module__ == model.__name__]
    funcs += [f for name, f in inspect.getmembers(GraphBank, inspect.isfunction)
              if not name.startswith("__")]
    funcs += [evaluate_module._score_run, train_module._preflight]
    assert model.batch_forward in funcs and GraphBank.encoded in funcs
    for f in funcs:
        names = list(inspect.signature(f).parameters)
        if "bank" in names or f.__qualname__.startswith("GraphBank."):
            assert not [n for n in names if "cfg" in n], f.__qualname__


class TestModelConfig:
    @pytest.mark.parametrize("field, value", [
        ("align_mode", "resample"), ("d", 0), ("intermediate_dim", 0),
    ])
    def test_bad_alignment_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ModelConfig(**{field: value})


class TestLearnableProjection:
    @pytest.mark.parametrize("align_mode, width", [
        ("pad", 8), ("learnable-projection", 6),
    ])
    def test_bank_aligns_to_the_mode_width(self, node_setup, align_mode, width):
        cfg = ModelConfig(d=8, n_heads=2, align_mode=align_mode, intermediate_dim=6)
        assert GraphBank(node_setup[0].corpus, cfg).prepared(0).shape == (60, width)

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
        _, loss = episode_probs_and_loss(bank_lp, ep, params, train=True)
        loss.backward()
        assert params["proj_w"].grad is not None
        assert np.any(params["proj_w"].grad != 0.0)


class TestGradients:
    def test_full_episode_grad_check(self, node_setup):
        bank, sampler = node_setup
        params = params_to_tensors(init_params(CFG))
        ep = sampler.sample()

        def loss():
            _, ell = episode_probs_and_loss(bank, ep, params, train=True)
            return ell

        report = ad.grad_check(loss, params, tol=1e-4, max_coords_per_param=6,
                               rng=np.random.default_rng(0))
        assert report.passed, report

    def test_grad_check_with_dropout_active(self, node_setup):
        # augmentation is reseeded per call, so finite differences see the
        # same masks and the check stays valid with dropout on
        cfg = ModelConfig(d=4, encoder_layers=2, transformer_layers=1, n_heads=2,
                          ffn_hidden=8, dropout=0.1, seed=1)
        bank = GraphBank(node_setup[0].corpus, cfg)
        sampler = EpisodeSampler(bank.corpus, "node", 2, 2, query_size=4,
                                 feat_drop=0.1, edge_drop=0.1, seed=13)
        params = params_to_tensors(init_params(cfg))
        ep = sampler.sample()

        def loss():
            _, ell = episode_probs_and_loss(bank, ep, params, train=True)
            return ell

        report = ad.grad_check(loss, params, tol=1e-4, max_coords_per_param=4,
                               rng=np.random.default_rng(1))
        assert report.passed, report


class TestEvalCache:
    def test_encoder_output_cached_per_graph(self, node_setup):
        corpus = node_setup[0].corpus
        params = params_to_tensors(init_params(CFG))
        bank = GraphBank(corpus, CFG)
        h1 = bank.encoded(0, params)
        h2 = bank.encoded(0, params)
        assert h1 is h2
        h3 = GraphBank(corpus, CFG).encoded(0, params)
        assert h3 is not h1
        assert h3.values.tobytes() == h1.values.tobytes()

    def test_encodings_are_constants_even_for_trainable_params(self, node_setup):
        _, sampler = node_setup
        bank = GraphBank(sampler.corpus, CFG)
        params = params_to_tensors(init_params(CFG))
        h = bank.encoded(0, params)
        assert not h.requires_grad and h._parents == ()
        logp = batch_forward(bank, [sampler.sample()], params, train=False)
        ad.sum_(logp).backward()
        enc = [k for k in params if k.startswith("enc_")]
        assert enc and all(params[k].grad is None for k in enc)
        assert params["tf0_wq"].grad is not None

    def test_cache_matches_direct_compute(self, node_setup):
        _, sampler = node_setup
        bank = GraphBank(sampler.corpus, CFG)
        params = params_to_tensors(init_params(CFG))
        ep = sampler.sample()
        cached = episode_forward(bank, ep, params, train=False)
        fresh = episode_forward(bank, ep, params, train=True)
        assert np.max(np.abs(cached.values - fresh.values)) < 1e-12


def _encode_graph_oracle(g, aligned, params, cfg):
    """The separate eval-time encoder that `GraphBank.encoded` replaced by the
    union path, kept as an oracle: one graph, its own adjacency, no drop."""
    adj = normalize_adjacency(g.node_count, g.edges).astype(cfg.np_dtype(), copy=False)
    x = ad.Tensor(aligned.astype(cfg.np_dtype(), copy=False))
    if cfg.align_mode == "learnable-projection":
        x = ad.matmul(x, params["proj_w"])
    return encode(adj, x, params, cfg.encoder_layers, cfg.encoder_variant)


def _per_graph_item_rows(bank, episode, params, rng, _item_rows=model._item_rows):
    """The per-graph graph-level path that the block-diagonal union replaced,
    kept as an oracle: each referenced graph is encoded alone (training draws
    its feature mask, then its edge-keep mask) and pooled by its own mean
    (`ad.mean` then, written here as `mul(sum_)`); the item rows are the
    supports' pooled rows, then the queries'."""
    if episode.level != "graph":
        return _item_rows(bank, episode, params, rng)
    cfg = bank.cfg
    dtype = cfg.np_dtype()

    def pooled_row(gi):
        if rng is None:
            h = bank.encoded(gi, params)
        else:
            g = bank.corpus.graphs[gi]
            x = ad.Tensor(bank.prepared(gi).astype(dtype, copy=False))
            if episode.feat_drop > 0.0:
                x = ad.mul(x, model._keep_mask(rng, x.shape, episode.feat_drop, dtype))
            if cfg.align_mode == "learnable-projection":
                x = ad.matmul(x, params["proj_w"])
            edges = g.edges
            if episode.edge_drop > 0.0:
                edges = edges[rng.random(edges.shape[0]) >= episode.edge_drop]
            adj = normalize_adjacency(g.node_count, edges).astype(dtype, copy=False)
            h = encode(adj, x, params, cfg.encoder_layers, cfg.encoder_variant)
        return ad.mul(ad.sum_(h, axis=0, keepdims=True), 1.0 / h.values.shape[0])

    refs = np.concatenate([episode.support_refs, episode.query_refs])
    n_sup = len(episode.support_refs)
    return (ad.concat([pooled_row(int(gi)) for gi in refs], axis=0),
            np.arange(n_sup), np.arange(n_sup, len(refs)))


def _assert_close(got, want, rel):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


class TestBlockDiagonalGraphEpisode:
    """A training graph episode encodes its graphs as one disjoint union; the
    per-graph path above must give the same pooled rows and gradients."""

    TOL = {"float64": 1e-12, "float32": 1e-5}

    @pytest.fixture(scope="class")
    def corpus(self):
        rng = np.random.default_rng(30)
        graphs = []
        for i in range(12):
            s = make_synthetic(SyntheticSpec(2, 3 + i % 3, 0.7, 0.2, 5 + i % 4,
                                             1.0, 0.4, seed=300 + i))
            edges, n = s.edges, s.node_count
            if i == 0:
                edges = np.zeros((0, 2), dtype=np.int64)  # edgeless graph
            if i == 1:
                n = s.node_count + 1                      # node n-1 is isolated
            features = rng.standard_normal((n, s.features.shape[1]))
            graphs.append(make_graph(n, edges, features, graph_label=i % 2,
                                     graph_split_tag=TRAIN))
        return Corpus(graphs=tuple(graphs))

    @staticmethod
    def episode(drop):
        # every graph of the corpus, the edgeless and the isolated-node one
        # among the supports, each class on both sides
        return Episode(level="graph", n_way=2, k_shot=3, graph_index=-1,
                       support_refs=np.array([0, 1, 2, 3, 4, 5]),
                       support_labels=np.array([0, 1, 0, 1, 0, 1]),
                       query_refs=np.array([11, 6, 7, 10, 8, 9]),
                       query_labels=np.array([1, 0, 1, 0, 0, 1]),
                       class_ids=np.array([0, 1]), feat_drop=drop, edge_drop=drop,
                       aug_seed=1234)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("drop", [0.0, 0.1])
    @pytest.mark.parametrize("align_mode", ["pad", "learnable-projection"])
    @pytest.mark.parametrize("variant", ["linear", "nonlinear"])
    def test_matches_per_graph_path(self, corpus, monkeypatch, variant, align_mode,
                                    drop, dtype):
        cfg = ModelConfig(d=4, encoder_layers=2, transformer_layers=1, n_heads=2,
                          ffn_hidden=8, dropout=0.1, encoder_variant=variant,
                          align_mode=align_mode, intermediate_dim=3, dtype=dtype,
                          seed=3)
        bank = GraphBank(corpus, cfg)
        arrays = init_params(cfg)
        ep = self.episode(drop)
        tol = self.TOL[dtype]

        def run(item_rows):
            monkeypatch.setattr(model, "_item_rows", item_rows)
            params = params_to_tensors(arrays)
            pooled, sup, qry = item_rows(bank, ep, params,
                                         np.random.default_rng(ep.aug_seed))
            params = params_to_tensors(arrays)
            logp, loss = episode_probs_and_loss(bank, ep, params, train=True)
            loss.backward()
            return [pooled.values, sup, qry], logp.values, params

        new_pooled, new_logp, new_params = run(model._item_rows)
        old_pooled, old_logp, old_params = run(_per_graph_item_rows)
        for got, want in zip(new_pooled, old_pooled):
            _assert_close(got, want, tol)
        _assert_close(new_logp, old_logp, tol)
        for name, p in old_params.items():
            assert p.grad is not None, name
            _assert_close(new_params[name].grad, p.grad, tol)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("align_mode", ["pad", "learnable-projection"])
    @pytest.mark.parametrize("variant", ["linear", "nonlinear"])
    def test_eval_rows_match_per_graph_encoder(self, corpus, variant, align_mode,
                                               dtype):
        cfg = ModelConfig(d=4, encoder_layers=2, transformer_layers=1, n_heads=2,
                          ffn_hidden=8, encoder_variant=variant,
                          align_mode=align_mode, intermediate_dim=3, dtype=dtype,
                          seed=3)
        arrays = init_params(cfg)
        if variant == "nonlinear":  # move the weights off the identity
            rng = np.random.default_rng(5)
            for name in arrays:
                if name.startswith("enc_w"):
                    arrays[name] = arrays[name] + rng.normal(
                        0.0, 0.3, arrays[name].shape).astype(dtype)
        params = params_to_tensors(arrays, requires_grad=False)
        bank = GraphBank(corpus, cfg)
        for gi, g in enumerate(corpus.graphs):
            got = bank.encoded(gi, params).values
            want = _encode_graph_oracle(g, bank.prepared(gi), params, cfg).values
            assert got.dtype == want.dtype == np.dtype(dtype)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), gi

    def test_evaluate_matches_per_graph_path(self, monkeypatch):
        # two graph classes told apart by density; an untrained model's
        # per-run accuracies (0.58 / 0.50 / 0.42) show real predictions
        graphs = []
        for i in range(24):
            p = 0.2 if i % 2 == 0 else 0.8
            s = make_synthetic(SyntheticSpec(2, 4 + i % 3, p, p / 4, 5, 1.0, 0.4,
                                             seed=400 + i))
            graphs.append(make_graph(s.node_count, s.edges, s.features,
                                     graph_label=i % 2))
        corpus = assign_graph_splits(Corpus(graphs=tuple(graphs)), (0.5, 0.25, 0.25),
                                     seed=6)
        arrays = init_params(CFG)
        params = params_to_tensors(arrays, requires_grad=False)
        sampler = EpisodeSampler(corpus, "graph", 2, 3, query_size=8, policy="eval",
                                 seed=8)
        episodes = [sampler.sample() for _ in range(4)]

        def run():
            bank = GraphBank(corpus, CFG)
            logps = [episode_forward(bank, ep, params).values for ep in episodes]
            report = evaluate(corpus, arrays, CFG, "graph", n_way=2, k_shot=3,
                              episodes_per_run=4, seeds=(0, 1, 2))
            return logps, report.per_run

        new_logps, new_runs = run()
        monkeypatch.setattr(model, "_item_rows", _per_graph_item_rows)
        old_logps, old_runs = run()
        for got, want in zip(new_logps, old_logps):
            _assert_close(got, want, self.TOL["float64"])
        assert new_runs == old_runs
        assert len({r["accuracy"] for r in new_runs}) > 1


def _encode_all_rows(adj, x, params, n_layers, variant="linear", rows=None,
                     proj_w=None):
    """`encode` before row restriction, kept as an oracle: it projects and
    propagates every row and returns them all, whatever `rows` asks for."""
    h = x if isinstance(x, ad.Tensor) else ad.Tensor(np.asarray(x))
    if proj_w is not None:
        h = ad.matmul(h, proj_w)
    for i in range(n_layers):
        h = ad.const_matmul(adj, h, mat_t=adj)
        if variant == "nonlinear":
            h = ad.relu(ad.matmul(h, params[f"enc_w{i}"]))
        h = ad.layernorm(h, params[f"enc_ln{i}_gamma"], params[f"enc_ln{i}_beta"])
    return h


def _split_both(g, seed):
    g = assign_split(g, (0.6, 0.2, 0.2), "node", seed=seed)
    return assign_split(g, (0.6, 0.2, 0.2), "link", seed=seed + 1)


@pytest.fixture(scope="module")
def sparse_desk():
    """A 2000-node graph of mean degree about 3: a desk-preset node or link
    episode's items are a small part of it, so its last two hops restrict."""
    g = make_synthetic(SyntheticSpec(4, 500, 0.005, 0.0005, 8, 2.0, 0.5, seed=20))
    return Corpus(graphs=(_split_both(g, 21),))


def _run_step(bank, episodes, arrays, monkeypatch, encode_fn):
    """A training forward and backward of `episodes` with `encode_fn` as the
    model's encoder: the log-probabilities, the loss and every gradient, plus
    the row count of each encoder output."""
    shapes = []

    def spy(*args, **kwargs):
        h = encode_fn(*args, **kwargs)
        shapes.append(h.shape[0])
        return h

    monkeypatch.setattr(model, "encode", spy)
    params = params_to_tensors(arrays)
    logp, loss, _ = batch_probs_and_loss(bank, episodes, params, train=True)
    loss.backward()
    monkeypatch.undo()
    return logp.values, loss.values, {k: p.grad for k, p in params.items()}, shapes


class TestRestrictedTrainingEncode:
    """A training node or link episode encodes only the rows its items read
    (`_item_rows` renumbers its refs into them); the same step with the
    all-rows oracle as the encoder gives the same losses and gradients."""

    TOL = {"float64": 1e-12, "float32": 1e-5}

    @pytest.fixture(scope="class")
    def corpus(self):
        # graph 0: 400 nodes of mean degree about 3, whose later hops restrict;
        # graph 1: 10 nodes, of which an episode reads over half, so none does
        big = make_synthetic(SyntheticSpec(4, 100, 0.024, 0.002, 6, 1.0, 0.5, seed=11))
        small = make_synthetic(SyntheticSpec(2, 5, 0.6, 0.2, 6, 1.0, 0.5, seed=12))
        return Corpus(graphs=(big, small))

    @staticmethod
    def episodes(level):
        """A restricted episode on graph 0 (6 queries) and an unrestricted one
        on graph 1 (3 queries, so it also pads), 2-way 2-shot."""
        if level == "node":
            refs = [(np.array([7, 93, 210, 388]), np.array([15, 150, 151, 260, 301, 399])),
                    (np.array([0, 5, 1, 6]), np.array([2, 7, 9]))]
        else:
            refs = [(np.array([[3, 40], [100, 333], [41, 42], [250, 9]]),
                     np.array([[5, 6], [120, 399], [7, 300], [60, 61], [3, 200],
                               [17, 71]])),
                    (np.array([[0, 1], [2, 8], [3, 4], [5, 9]]),
                     np.array([[6, 7], [1, 9], [0, 2]]))]
        return [Episode(level=level, n_way=2, k_shot=2, graph_index=gi,
                        support_refs=sup, support_labels=np.array([0, 1, 0, 1]),
                        query_refs=qry, query_labels=np.arange(len(qry)) % 2,
                        class_ids=np.array([0, 1]), feat_drop=0.1, edge_drop=0.1,
                        aug_seed=77 + gi)
                for gi, (sup, qry) in enumerate(refs)]

    def check(self, corpus, cfg, level, monkeypatch):
        bank = GraphBank(corpus, cfg)
        arrays = init_params(cfg)
        rng = np.random.default_rng(5)
        for name in arrays:  # move the affines and weights off their init
            arrays[name] = arrays[name] + rng.normal(
                0.0, 0.1, arrays[name].shape).astype(cfg.dtype)
        episodes = self.episodes(level)
        got = _run_step(bank, episodes, arrays, monkeypatch, model.encode)
        want = _run_step(bank, episodes, arrays, monkeypatch, _encode_all_rows)
        read = [len(np.union1d(ep.support_refs, ep.query_refs)) for ep in episodes]
        assert got[3] == [read[0], 10] and want[3] == [400, 10]
        tol = self.TOL[cfg.dtype]
        for g, w in zip(got[:2], want[:2]):
            _assert_close(g, w, tol)
        for name, w in want[2].items():
            assert w is not None, name
            _assert_close(got[2][name], w, tol)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("align_mode", ["pad", "learnable-projection"])
    @pytest.mark.parametrize("variant", ["linear", "nonlinear"])
    @pytest.mark.parametrize("level", ["node", "link"])
    def test_mixed_batch_matches_all_rows(self, corpus, monkeypatch, level, variant,
                                          align_mode, dtype):
        cfg = ModelConfig(d=4, encoder_layers=4, transformer_layers=1, n_heads=2,
                          ffn_hidden=8, dropout=0.1, encoder_variant=variant,
                          align_mode=align_mode, intermediate_dim=3, dtype=dtype,
                          seed=3)
        self.check(corpus, cfg, level, monkeypatch)

    @pytest.mark.parametrize("align_mode", ["pad", "learnable-projection"])
    def test_no_encoder_layers(self, corpus, monkeypatch, align_mode):
        # the rows read are taken straight from the (projected) features
        cfg = ModelConfig(d=4, encoder_layers=0, transformer_layers=1, n_heads=2,
                          ffn_hidden=8, dropout=0.1, align_mode=align_mode,
                          intermediate_dim=3, seed=3)
        self.check(corpus, cfg, "node", monkeypatch)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("level", ["node", "link"])
    def test_desk_graph_is_bit_identical(self, monkeypatch, level, dtype):
        # on a 160-node desk graph no hop restricts, so nothing may change
        g = make_synthetic(SyntheticSpec(4, 40, 0.3, 0.05, 8, 2.0, 0.5, seed=20))
        corpus = Corpus(graphs=(_split_both(g, 21),))
        model_cfg, train_cfg = desk_preset()
        cfg = dataclasses.replace(model_cfg, dtype=dtype)
        sampler = TestTapeBudget.sampler({level: corpus}, level, train_cfg)
        episodes = [sampler.sample() for _ in range(train_cfg.batch_episodes)]
        bank = GraphBank(corpus, cfg)
        arrays = init_params(cfg)
        got = _run_step(bank, episodes, arrays, monkeypatch, model.encode)
        want = _run_step(bank, episodes, arrays, monkeypatch, _encode_all_rows)
        assert got[3] == want[3] == [160] * 4
        for g, w in zip(got[:2], want[:2]):
            assert g.tobytes() == w.tobytes()
        for name, w in want[2].items():
            assert got[2][name].tobytes() == w.tobytes(), name


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
    augmentation and dropout on), run as a batch of one, records at most
    this many tape nodes; a training step's batch of 4 episodes per level
    records at most STEP_BUDGET."""

    # the measured counts, which are deterministic: a graph episode encodes
    # its graphs as one union, and the tape holds only differentiable nodes,
    # so a per-graph fall back or a constant back on the tape breaks them
    BUDGET = {"node": 92, "link": 96, "graph": 93}
    # each episode encodes on its own (7 nodes; a graph episode pools, 8),
    # one concat joins their rows, and the rest of the forward runs once
    # for the batch: against 4 x BUDGET for four forwards
    STEP_BUDGET = {"node": 114, "link": 118, "graph": 118}

    @staticmethod
    def sampler(corpora, level, train_cfg):
        return EpisodeSampler(
            corpora[level], level, n_way=2 if level == "link" else train_cfg.n_way,
            k_shot=train_cfg.shot_start, query_size=train_cfg.query_size,
            policy="pretrain", seed=0, feat_drop=train_cfg.feat_drop,
            edge_drop=train_cfg.edge_drop)

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
        sampler = self.sampler(corpora, level, train_cfg)
        params = params_to_tensors(init_params(model_cfg))
        bank = GraphBank(corpora[level], model_cfg)
        _, loss = episode_probs_and_loss(bank, sampler.sample(), params, train=True)
        assert _tape_nodes(loss) <= self.BUDGET[level]
        # every recorded parent takes a gradient: no constant is a tape node
        assert all(p.requires_grad for n in ad._topo_order(loss) for p in n._parents)

    @pytest.mark.parametrize("level", ["node", "link", "graph"])
    def test_desk_step_within_budget(self, desk, level):
        corpora, model_cfg, train_cfg = desk
        sampler = self.sampler(corpora, level, train_cfg)
        params = params_to_tensors(init_params(model_cfg))
        bank = GraphBank(corpora[level], model_cfg)
        episodes = [sampler.sample() for _ in range(train_cfg.batch_episodes)]
        _, loss, _ = batch_probs_and_loss(bank, episodes, params, train=True)
        assert _tape_nodes(loss) <= self.STEP_BUDGET[level]
        assert all(p.requires_grad for n in ad._topo_order(loss) for p in n._parents)

    @pytest.mark.parametrize("level", ["node", "link"])
    def test_restricted_episode_records_as_many(self, sparse_desk, monkeypatch, level):
        # restricted hops are one tape node each, as whole-graph hops are
        model_cfg, train_cfg = desk_preset()
        sampler = self.sampler({level: sparse_desk}, level, train_cfg)
        shapes = []

        def spy(*args, **kwargs):
            h = encode(*args, **kwargs)
            shapes.append(h.shape[0])
            return h

        monkeypatch.setattr(model, "encode", spy)
        params = params_to_tensors(init_params(model_cfg))
        bank = GraphBank(sparse_desk, model_cfg)
        _, loss = episode_probs_and_loss(bank, sampler.sample(), params, train=True)
        assert shapes[0] < 2000 // 2
        assert _tape_nodes(loss) == self.BUDGET[level]

    def test_layernorm_is_one_tape_node(self):
        x = ad.Tensor(np.linspace(-1.0, 1.0, 12).reshape(3, 4), requires_grad=True)
        gamma, beta = (ad.Tensor(np.full(4, v), requires_grad=True) for v in (1.5, 0.5))
        h = ad.relu(x)
        # the op and its gamma and beta leaves on top of h's tape
        assert _tape_nodes(ad.layernorm(h, gamma, beta)) == _tape_nodes(h) + 3


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
        ad.const_matmul(adj, np.ones((3, 2)), mat_t=adj.T)
        assert transposes == ["csr_matrix"]

    def test_graph_training_step_builds_no_transpose(self, graph_setup, transposes):
        bank, _ = graph_setup
        sampler = EpisodeSampler(bank.corpus, "graph", 2, 2, query_size=4, seed=7,
                                 feat_drop=0.1, edge_drop=0.2)
        params = params_to_tensors(init_params(CFG))
        _, loss = episode_probs_and_loss(bank, sampler.sample(), params, train=True)
        loss.backward()
        assert all(p.grad is not None for p in params.values())
        assert transposes == []

    def test_restricted_node_step_builds_no_transpose(self, sparse_desk, transposes,
                                                       monkeypatch):
        # a restricted hop's backward matrix is the CSC view of its row slice:
        # the slice's own arrays, read as the transpose
        hops = []

        def spy(mat, x, mat_t, _orig=ad.const_matmul):
            hops.append((mat, mat_t))
            return _orig(mat, x, mat_t=mat_t)

        monkeypatch.setattr(ad, "const_matmul", spy)
        model_cfg, train_cfg = desk_preset()
        sampler = TestTapeBudget.sampler({"node": sparse_desk}, "node", train_cfg)
        params = params_to_tensors(init_params(model_cfg))
        bank = GraphBank(sparse_desk, model_cfg)
        episodes = [sampler.sample() for _ in range(train_cfg.batch_episodes)]
        _, loss, _ = batch_probs_and_loss(bank, episodes, params, train=True)
        loss.backward()
        assert all(p.grad is not None for p in params.values())
        assert transposes == []
        restricted = [(mat, mat_t) for mat, mat_t in hops
                      if sp.issparse(mat) and mat.shape[0] < 2000]
        assert len(restricted) >= 2 * len(episodes)  # at least the last two hops
        for mat, mat_t in restricted:
            assert mat.format == "csr" and mat_t.format == "csc"
            assert mat_t.shape == mat.shape[::-1]
            for name in ("data", "indices", "indptr"):
                assert np.shares_memory(getattr(mat_t, name), getattr(mat, name)), name
