"""End-to-end acceptance gate.

Nine checks, one printed verdict line each (written to the real stdout so
they survive pytest's capture).  Checks 5 through 8 share a single desk-scale
pre-training run on a frozen synthetic benchmark, in the desk preset's
float32; checks 5 and 6 also judge the same run made in float64, so each
arm prints its own line.  Everything upstream is validated against
independent oracles first, so a red line here points at the pipeline stage
named in the verdict, not at the harness.
"""

import dataclasses
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import gilt
from gilt import autodiff as ad
from gilt.encoder import normalize_adjacency
from gilt.episodes import EpisodeSampler
from gilt.evaluate import accuracy, evaluate, hits_at_k, roc_auc, sweep_shots
from gilt.features import fit_pca
from gilt.graphs import Corpus, SyntheticSpec, assign_split, make_synthetic
from gilt.head import predict
from gilt.model import (GraphBank, ModelConfig, episode_probs_and_loss,
                        init_params, params_to_tensors)
from gilt.tokens import build_tokens
from gilt.train import (config_from_sidecar, desk_preset, load_checkpoint,
                        save_checkpoint, train)
from gilt.transformer import transformer_forward, transformer_init


VERDICTS: list[str] = []


def _verdict(num: int, ok: bool, detail: str) -> bool:
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] criterion {num}: {detail}"
    VERDICTS.append(line)
    print(line, flush=True)
    return ok


def _noisy(arrays: dict, seed: int, scale: float = 0.05) -> dict:
    # perturb every tensor so the deliberately zeroed projections also get
    # exercised instead of sitting in the uniform-attention init regime
    rng = np.random.default_rng(seed)
    return {k: v + rng.uniform(-scale, scale, size=v.shape)
            for k, v in arrays.items()}


# ---------------------------------------------------------------------------
# frozen benchmark
# ---------------------------------------------------------------------------

def _spec(intra, inter, per_class, seed):
    return SyntheticSpec(n_classes=4, nodes_per_class=per_class,
                         intra_p=intra, inter_p=inter, feature_dim=32,
                         class_mean_separation=1.0, noise_sd=1.0, seed=seed)


def _corpus(specs):
    graphs = []
    for spec in specs:
        g = make_synthetic(spec)
        g = assign_split(g, (0.6, 0.2, 0.2), "node", seed=spec.seed + 1)
        g = assign_split(g, (0.6, 0.2, 0.2), "link", seed=spec.seed + 2)
        graphs.append(g)
    return Corpus(graphs=tuple(graphs))


def _pretrained(tmp_path_factory, **model_changes):
    """One desk-preset pre-training run on the frozen benchmark.

    Two held-out graphs: a structurally strong one where a trained model
    should be near-perfect, and a weaker one (sparser communities, more
    cross links) where the size of the support set genuinely matters.
    """
    pretrain = _corpus([_spec(0.30, 0.02, 40, 100 + i) for i in range(5)])
    hold_strong = _corpus([_spec(0.30, 0.02, 60, 999)])
    hold_weak = _corpus([_spec(0.20, 0.04, 60, 777)])

    model_cfg, train_cfg = desk_preset()
    model_cfg = dataclasses.replace(model_cfg, **model_changes)
    train_cfg = dataclasses.replace(train_cfg, levels=("node",), n_way=4, seed=0)

    out_dir = tmp_path_factory.mktemp("bench")
    t0 = time.perf_counter()
    result = train(pretrain, model_cfg, train_cfg, out_dir=out_dir)
    wall = time.perf_counter() - t0

    return SimpleNamespace(
        model_cfg=model_cfg,
        train_cfg=train_cfg,
        trained=result.params,
        untrained=init_params(model_cfg),
        hold_strong=hold_strong,
        hold_weak=hold_weak,
        out_dir=out_dir,
        train_seconds=wall,
    )


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """The run shared by the transfer/ablation/shot checks, in the desk
    preset's own dtype (float32)."""
    return _pretrained(tmp_path_factory)


@pytest.fixture(scope="module")
def bench64(tmp_path_factory):
    """The same run in float64, for the float64 arm of checks 5 and 6."""
    return _pretrained(tmp_path_factory, dtype="float64")


# ---------------------------------------------------------------------------
# 1. end-to-end gradients
# ---------------------------------------------------------------------------

def test_criterion_1_full_episode_gradients():
    """Finite differences across the whole pipeline, augmentation on."""
    spec = SyntheticSpec(n_classes=2, nodes_per_class=8, intra_p=0.5,
                         inter_p=0.1, feature_dim=5,
                         class_mean_separation=1.0, noise_sd=0.5, seed=11)
    g = make_synthetic(spec)
    g = assign_split(g, (0.6, 0.2, 0.2), "node", seed=12)
    corpus = Corpus(graphs=(g,))

    cfg = ModelConfig(d=8, encoder_layers=2, transformer_layers=1, n_heads=2,
                      ffn_hidden=16, dropout=0.1, dtype="float64", seed=3)
    bank = GraphBank(corpus, cfg)
    sampler = EpisodeSampler(corpus, "node", 2, 2, query_size=3,
                             policy="pretrain", seed=7,
                             feat_drop=0.1, edge_drop=0.1)
    episode = sampler.sample()

    params = params_to_tensors(_noisy(init_params(cfg), seed=21),
                               requires_grad=True)

    def loss():
        return episode_probs_and_loss(bank, episode, params, train=True)[1]

    t0 = time.perf_counter()
    report = ad.grad_check(loss, params, tol=1e-4, max_coords_per_param=4,
                           rng=np.random.default_rng(0))
    elapsed = time.perf_counter() - t0

    covered = set(report.per_param) == set(params)
    ok = report.passed and covered and elapsed < 60.0
    assert _verdict(1, ok,
                    f"grad check max_rel_err={report.max_rel_err:.2e} "
                    f"(tol 1e-4) over {report.coords_checked} coords, "
                    f"{len(report.per_param)} tensors, {elapsed:.1f}s")
    assert report.max_rel_err < 1e-4
    assert covered


# ---------------------------------------------------------------------------
# 2. architectural invariants, randomized
# ---------------------------------------------------------------------------

def test_criterion_2_randomized_invariants():
    """Query isolation, support-order invariance, blank query class half."""
    n_cases = 100
    worst_isolation = 0.0
    worst_perm = 0.0
    zero_block_ok = True

    for i in range(n_cases):
        rng = np.random.default_rng(1000 + i)
        d = int(rng.integers(2, 5))
        m = 2 * d
        layers = int(rng.integers(1, 3))
        heads = int(rng.choice([1, 2]))
        k = int(rng.integers(2, 4))
        s, q = 2 * k, int(rng.integers(2, 5))

        arrays = transformer_init(d, layers, heads, ffn_hidden=8, seed=i)
        params = params_to_tensors(_noisy(arrays, seed=i, scale=0.3),
                                   requires_grad=False)
        ts = ad.Tensor(rng.normal(size=(s, m)))
        tq = ad.Tensor(rng.normal(size=(q, m)))
        labels = np.repeat(np.arange(2), k)

        s_out, q_out = transformer_forward(ts, tq, params, layers, heads)

        # each query row must come out the same whether it shares the batch
        # with the others or runs alone
        for j in range(q):
            lone = transformer_forward(
                ts, ad.Tensor(tq.values[j:j + 1]), params, layers, heads)[1]
            worst_isolation = max(
                worst_isolation,
                float(np.max(np.abs(lone.values[0] - q_out.values[j]))))

        # shuffling support rows together with their labels must not move
        # the predictive distribution
        perm = rng.permutation(s)
        s_out_p, q_out_p = transformer_forward(
            ad.Tensor(ts.values[perm]), tq, params, layers, heads)
        probs = np.exp(predict(s_out, q_out, labels, 2, d).values)
        probs_p = np.exp(predict(s_out_p, q_out_p, labels[perm], 2, d).values)
        worst_perm = max(worst_perm, float(np.max(np.abs(probs - probs_p))))

        # the label half of a query token is all-zero, bitwise
        sup = ad.Tensor(rng.normal(size=(s, d)))
        qry = ad.Tensor(rng.normal(size=(q, d)))
        _, t_query = build_tokens(sup, labels, qry, 2)
        zero_block_ok &= bool(np.all(t_query.values[:, d:] == 0.0))

    ok = worst_isolation < 1e-10 and worst_perm < 1e-8 and zero_block_ok
    assert _verdict(2, ok,
                    f"{n_cases} random configs: query isolation "
                    f"{worst_isolation:.1e} (<1e-10), support permutation "
                    f"{worst_perm:.1e} (<1e-8), query label half bitwise zero "
                    f"{zero_block_ok}")
    assert worst_isolation < 1e-10
    assert worst_perm < 1e-8
    assert zero_block_ok


# ---------------------------------------------------------------------------
# 3. numerical building blocks vs closed forms
# ---------------------------------------------------------------------------

def test_criterion_3_normalization_and_pca_oracles():
    worst = 0.0

    # path on three nodes, degrees with self-loop are 2, 3, 2
    path = normalize_adjacency(3, np.array([[0, 1], [1, 2]])).toarray()
    r6 = 1.0 / np.sqrt(6.0)
    expect = np.array([[0.5, r6, 0.0], [r6, 1.0 / 3.0, r6], [0.0, r6, 0.5]])
    worst = max(worst, float(np.max(np.abs(path - expect))))

    # complete graph on five nodes collapses to the constant matrix
    k5_edges = np.array([(a, b) for a in range(5) for b in range(a + 1, 5)])
    k5 = normalize_adjacency(5, k5_edges).toarray()
    worst = max(worst, float(np.max(np.abs(k5 - 0.2))))

    # an isolated node keeps exactly its unit self-loop
    iso = normalize_adjacency(3, np.array([[0, 1]])).toarray()
    worst = max(worst, float(np.max(np.abs(iso[2] - np.array([0, 0, 1.0])))))
    worst = max(worst, float(np.max(np.abs(iso[:, 2] - np.array([0, 0, 1.0])))))

    # sparse result equals the dense textbook computation on a small graph,
    # and so does one propagation step over a random feature matrix
    rng = np.random.default_rng(17)
    g = make_synthetic(SyntheticSpec(2, 25, 0.3, 0.05, 4, 1.0, 1.0, seed=5))
    a = np.zeros((g.node_count, g.node_count))
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1.0
    a += np.eye(g.node_count)
    d_is = np.diag(1.0 / np.sqrt(a.sum(axis=1)))
    dense = d_is @ a @ d_is
    sparse = normalize_adjacency(g.node_count, g.edges)
    worst = max(worst, float(np.max(np.abs(sparse.toarray() - dense))))
    h = rng.normal(size=(g.node_count, 6))
    worst = max(worst, float(np.max(np.abs(sparse @ h - dense @ h))))

    # the streamed-covariance PCA and an SVD of the centred matrix agree on
    # the projected geometry
    basis = np.linalg.qr(rng.normal(size=(50, 50)))[0]
    spectrum = 1.0 / np.arange(1, 51)
    x = rng.normal(size=(500, 50)) @ (basis * spectrum) + rng.normal(size=50)
    pca = fit_pca(x, 8)
    centred = x - x.mean(axis=0)
    vt = np.linalg.svd(centred, full_matrices=False)[2][:8]
    z_s = centred @ vt.T
    z_p = (x - pca.mean) @ pca.components.T
    g_s, g_p = z_s @ z_s.T, z_p @ z_p.T
    pca_rel = float(np.linalg.norm(g_s - g_p) / np.linalg.norm(g_s))

    ok = worst < 1e-12 and pca_rel < 1e-2
    assert _verdict(3, ok,
                    f"adjacency normalization off closed form by {worst:.1e} "
                    f"(<1e-12), streamed-PCA-vs-SVD projected Gram rel err "
                    f"{pca_rel:.1e} (<1e-2)")
    assert worst < 1e-12
    assert pca_rel < 1e-2


# ---------------------------------------------------------------------------
# 4. metrics vs brute force
# ---------------------------------------------------------------------------

def _pairwise_auc(scores, labels):
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


def test_criterion_4_metric_oracles():
    worst_auc = 0.0
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 201))
        # one-decimal quantization forces plenty of ties
        scores = np.round(rng.normal(size=n), 1)
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[1] = 0, 1
        worst_auc = max(worst_auc, abs(roc_auc(scores, labels)
                                       - _pairwise_auc(scores, labels)))

    scores = np.array([0.9, 0.8, 0.3, 0.7, 0.5, 0.1])
    labels = np.array([1, 1, 1, 0, 0, 0])
    hits_exact = hits_at_k(scores, labels, 2) == pytest.approx(2.0 / 3.0)

    monotone_ok = True
    for seed in range(5):
        rng = np.random.default_rng(50 + seed)
        s = rng.normal(size=40)
        y = rng.integers(0, 2, size=40)
        y[:2] = [0, 1]
        for k in (1, 3, 10):
            base = hits_at_k(s, y, k)
            monotone_ok &= hits_at_k(np.exp(s), y, k) == base
            monotone_ok &= hits_at_k(3.0 * s + 7.0, y, k) == base

    acc_ok = (accuracy([0, 1, 2, 1], [0, 1, 1, 1]) == 0.75
              and accuracy([2, 2], [0, 1]) == 0.0)

    ok = worst_auc < 1e-12 and hits_exact and monotone_ok and acc_ok
    assert _verdict(4, ok,
                    f"AUC vs pairwise count {worst_auc:.1e} (<1e-12), "
                    f"hits@k hand case {hits_exact}, monotone-invariant "
                    f"{monotone_ok}, accuracy exact {acc_ok}")
    assert worst_auc < 1e-12
    assert hits_exact and monotone_ok and acc_ok


# ---------------------------------------------------------------------------
# 5-8. transfer on the frozen benchmark
# ---------------------------------------------------------------------------

def _node_transfer(bench):
    rep = evaluate(bench.hold_strong, bench.trained, bench.model_cfg,
                   "node", 4, 5)
    base = evaluate(bench.hold_strong, bench.untrained, bench.model_cfg,
                    "node", 4, 5)
    sigma = max(base.sd_accuracy, 1e-9)
    at_chance = abs(base.mean_accuracy - 0.25) <= 3.0 * sigma

    ok = (bench.train_seconds <= 600.0
          and rep.mean_accuracy >= 0.90
          and at_chance)
    assert _verdict(5, ok,
                    f"{bench.model_cfg.dtype} held-out 4-way 5-shot node acc "
                    f"{rep.mean_accuracy:.4f} (>=0.90), untrained "
                    f"{base.mean_accuracy:.4f} within 3 sd ({3 * sigma:.4f}) of "
                    f"0.25, training took {bench.train_seconds:.0f}s (<=600s)")
    assert bench.train_seconds <= 600.0
    assert rep.mean_accuracy >= 0.90
    assert at_chance


def test_criterion_5_node_transfer(bench):
    _node_transfer(bench)


def test_criterion_5_node_transfer_float64(bench64):
    _node_transfer(bench64)


def _link_transfer(bench):
    rep = evaluate(bench.hold_strong, bench.trained, bench.model_cfg,
                   "link", 2, 10)
    base = evaluate(bench.hold_strong, bench.untrained, bench.model_cfg,
                    "link", 2, 10)
    near_half = abs(base.mean_auc - 0.5) <= 0.05

    ok = rep.mean_auc >= 0.70 and near_half
    assert _verdict(6, ok,
                    f"{bench.model_cfg.dtype} held-out 10-shot link AUC "
                    f"{rep.mean_auc:.4f} (>=0.70), untrained {base.mean_auc:.4f} "
                    f"in [0.45, 0.55]")
    assert rep.mean_auc >= 0.70
    assert near_half


def test_criterion_6_link_transfer(bench):
    _link_transfer(bench)


def test_criterion_6_link_transfer_float64(bench64):
    _link_transfer(bench64)


def test_criterion_7_ablations(bench):
    full = evaluate(bench.hold_strong, bench.trained, bench.model_cfg,
                    "node", 4, 5).mean_accuracy

    def ablated(**changes):
        cfg = dataclasses.replace(bench.model_cfg, **changes)
        return evaluate(bench.hold_strong, bench.trained, cfg,
                        "node", 4, 5).mean_accuracy

    no_tf = ablated(transformer_layers=0)
    no_enc = ablated(encoder_layers=0)
    enc2 = ablated(encoder_layers=2)

    ok = (full - no_tf >= 0.15
          and full - no_enc >= 0.15
          and enc2 <= full + 1e-12)
    assert _verdict(7, ok,
                    f"full {full:.4f}; no-transformer {no_tf:.4f} and "
                    f"no-encoder {no_enc:.4f} each >=0.15 below; truncated "
                    f"2-layer encoder {enc2:.4f} <= full")
    assert full - no_tf >= 0.15
    assert full - no_enc >= 0.15
    assert enc2 <= full + 1e-12


def test_criterion_8_shot_curve(bench):
    rows = sweep_shots(bench.hold_weak, bench.trained, bench.model_cfg,
                       "node", 4, ks=(1, 5, 10, 20))
    acc = [r.mean_accuracy for r in rows]
    sd = [r.sd_accuracy for r in rows]

    non_decreasing = all(
        acc[i + 1] >= acc[i] - max(sd[i], sd[i + 1]) for i in range(3))
    gains = [acc[i + 1] - acc[i] for i in range(3)]
    early_gain = max(gains[0], gains[1]) >= gains[2]

    curve = ", ".join(f"K={r.k_shot}: {r.mean_accuracy:.3f}" for r in rows)
    ok = non_decreasing and early_gain
    assert _verdict(8, ok,
                    f"{curve}; non-decreasing within noise {non_decreasing}, "
                    f"largest gain before K=10 {early_gain}")
    assert non_decreasing
    assert early_gain


# ---------------------------------------------------------------------------
# 9. reproducibility
# ---------------------------------------------------------------------------

def test_criterion_9_determinism_and_roundtrip(bench, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("\n".join([
        "schema=1",
        "model.d=6", "model.encoder_layers=2", "model.transformer_layers=1",
        "model.n_heads=2", "model.ffn_hidden=12",
        "train.epochs=2", "train.episodes_per_level=4",
        "train.batch_episodes=2", "train.n_way=2", "train.query_size=6",
        "train.shot_start=2", "train.shot_end=1", "train.levels=node",
        "data.registry=corpus/registry.json", "data.dataset=synth",
    ]) + "\n")

    # the child runs in tmp_path, so a relative PYTHONPATH (as in the Tier-1
    # command) would no longer find the package: hand it the absolute root
    pkg_root = str(Path(gilt.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(p for p in (pkg_root, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, GILT_THREADS="1", PYTHONPATH=pythonpath)

    def run(args):
        proc = subprocess.run([sys.executable, "-m", "gilt.cli"] + args,
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        return proc

    run(["synth", "--out", "corpus", "--graphs", "3", "--classes", "3",
         "--per-class", "12", "--feature-dim", "8", "--seed", "0"])
    twins = {}
    for dtype in ("float64", "float32"):
        for twin in ("a", "b"):
            run(["pretrain", str(config), "--out", f"{dtype}-{twin}",
                 "--set", f"model.dtype={dtype}"])
        twins[dtype] = tuple(
            (tmp_path / f"{dtype}-a" / name).read_bytes()
            == (tmp_path / f"{dtype}-b" / name).read_bytes()
            for name in ("telemetry.csv", "final.ckpt"))

    # the benchmark checkpoint survives a load/save cycle byte for byte
    src = bench.out_dir / "final.ckpt"
    arrays, opt, meta = load_checkpoint(src)
    values_same = (set(arrays) == set(bench.trained) and all(
        arrays[k].tobytes() == bench.trained[k].tobytes() for k in arrays))
    model_cfg, train_cfg = config_from_sidecar(meta)
    copy = save_checkpoint(tmp_path / "copy.ckpt", arrays, opt,
                           model_cfg, train_cfg, meta["epoch"])
    roundtrip_same = src.read_bytes() == copy.read_bytes()

    twins_same = all(all(same) for same in twins.values())
    ok = twins_same and values_same and roundtrip_same
    assert _verdict(9, ok,
                    "twin single-thread runs byte-identical in "
                    + " and ".join(f"{dtype} (telemetry {telem}, checkpoint {ckpt})"
                                   for dtype, (telem, ckpt) in twins.items())
                    + f"; load/save round-trip byte-identical {roundtrip_same}")
    assert twins_same
    assert values_same and roundtrip_same
