import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from gilt import autodiff as ad
from gilt import model as gilt_model
from gilt.arrayfile import read_arrays, write_arrays
from gilt.graphs import (
    Corpus,
    SyntheticSpec,
    assign_graph_splits,
    assign_split,
    make_graph,
    make_synthetic,
)
from gilt.episodes import shots_at
from gilt.evaluate import evaluate
from gilt.model import GraphBank, ModelConfig, init_params, params_to_tensors
from gilt.train import (
    CKPT_MAGIC,
    AdamWState,
    TrainConfig,
    TrainingDiverged,
    _epoch_sampler,
    _preflight,
    adamw_step,
    clip_gradients,
    config_from_sidecar,
    desk_preset,
    load_checkpoint,
    lr_at,
    reference_preset,
    save_checkpoint,
    train,
    write_telemetry,
)

SMALL_MODEL = ModelConfig(d=8, encoder_layers=2, transformer_layers=1, n_heads=2,
                          ffn_hidden=16, dropout=0.1)
TINY_MODEL = ModelConfig(d=2, encoder_layers=1, transformer_layers=0)


def small_train(**overrides) -> TrainConfig:
    base = dict(lr=5e-3, epochs=2, episodes_per_level=4, batch_episodes=2,
                levels=("node",), n_way=3, query_size=8,
                shot_start=3, shot_end=1, preflight=False, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def corpus():
    graphs = []
    for i in range(16):
        g = make_synthetic(SyntheticSpec(3, 14, 0.35, 0.05, 6, 2.5, 0.5, seed=i))
        g = assign_split(g, (0.6, 0.2, 0.2), "node", seed=i)
        g = assign_split(g, (0.6, 0.2, 0.2), "link", seed=i + 50)
        graphs.append(make_graph(g.node_count, g.edges, g.features,
                                 node_labels=g.node_labels, graph_label=i % 2,
                                 node_split=g.node_split, edge_split=g.edge_split))
    return assign_graph_splits(Corpus(graphs=tuple(graphs)), (0.5, 0.25, 0.25),
                               seed=9)


class TestSchedules:
    def test_linear_decay(self):
        cfg = TrainConfig(lr=1.0, epochs=10)
        assert lr_at(cfg, 0) == 1.0
        assert np.isclose(lr_at(cfg, 5), 0.5)
        assert lr_at(cfg, 9) > 0.0


class TestAdamW:
    def test_first_step_oracle(self):
        # after one step with fresh moments the bias-corrected update is
        # g / (|g| + eps), then decoupled decay shrinks the parameter
        cfg = TrainConfig(lr=0.1, weight_decay=0.01)
        p = ad.Tensor(np.array([2.0, -3.0]), requires_grad=True)
        p.grad = np.array([0.5, -0.25])
        params = {"w": p}
        state = AdamWState.fresh({"w": p.values})
        adamw_step(params, state, lr=0.1, cfg=cfg)
        expect = np.array([2.0, -3.0])
        update = np.array([0.5, -0.25]) / (np.abs([0.5, -0.25]) + 1e-8)
        expect -= 0.1 * (update + 0.01 * expect)
        assert np.max(np.abs(p.values - expect)) < 1e-12
        assert state.step == 1

    def test_decay_applies_without_gradient_signal(self):
        cfg = TrainConfig(lr=0.5, weight_decay=0.1)
        p = ad.Tensor(np.array([4.0]), requires_grad=True)
        p.grad = np.zeros(1)
        state = AdamWState.fresh({"w": p.values})
        adamw_step({"w": p}, state, lr=0.5, cfg=cfg)
        assert np.isclose(p.values[0], 4.0 - 0.5 * 0.1 * 4.0)

    def test_missing_grad_skipped(self):
        cfg = TrainConfig()
        p = ad.Tensor(np.array([1.0]), requires_grad=True)
        state = AdamWState.fresh({"w": p.values})
        adamw_step({"w": p}, state, lr=0.1, cfg=cfg)
        assert p.values[0] == 1.0


class TestClipping:
    def test_large_gradients_scaled_to_max(self):
        a = ad.Tensor(np.zeros(3), requires_grad=True)
        b = ad.Tensor(np.zeros(4), requires_grad=True)
        a.grad = np.full(3, 2.0)
        b.grad = np.full(4, 2.0)
        params = {"a": a, "b": b}
        before = clip_gradients(params, 1.0)
        assert np.isclose(before, 2.0 * np.sqrt(7.0))
        assert np.isclose(ad.global_grad_norm(params.values()), 1.0)

    def test_small_gradients_untouched(self):
        a = ad.Tensor(np.zeros(2), requires_grad=True)
        a.grad = np.array([0.1, 0.2])
        clip_gradients({"a": a}, 1.0)
        assert np.array_equal(a.grad, [0.1, 0.2])


class TestCheckpoints:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_round_trip_bit_exact(self, tmp_path, dtype):
        model_cfg = dataclasses.replace(SMALL_MODEL, dtype=dtype)
        arrays = init_params(model_cfg)
        arrays["enc_ln0_beta"] = np.random.default_rng(0).standard_normal(8).astype(dtype)
        opt = AdamWState.fresh(arrays)
        opt.step = 17
        for k in opt.m:
            opt.m[k] += 0.25
        path = save_checkpoint(tmp_path / "m.ckpt", arrays, opt,
                               model_cfg, small_train(), epoch=3)
        back, opt2, meta = load_checkpoint(path)
        assert set(back) == set(arrays)
        for k in arrays:
            assert back[k].dtype == arrays[k].dtype
            assert back[k].tobytes() == arrays[k].tobytes()
        for k in opt.m:
            assert opt2.m[k].tobytes() == opt.m[k].tobytes()
            assert opt2.v[k].tobytes() == opt.v[k].tobytes()
        assert opt2.step == 17
        assert meta["epoch"] == 3
        m2, t2 = config_from_sidecar(meta)
        assert m2 == model_cfg
        assert t2 == small_train()
        # the arrays are views into the file's buffer, and writable
        assert all(a.flags.writeable for a in back.values())

    @pytest.mark.parametrize("key", ["epoch", "opt_step", "model", "train"])
    def test_header_must_hold_epoch_step_and_configs(self, tmp_path, key):
        arrays = init_params(TINY_MODEL)
        path = save_checkpoint(tmp_path / "t.ckpt", arrays, AdamWState.fresh(arrays),
                               TINY_MODEL, small_train(), epoch=0)
        meta, named = read_arrays(path, CKPT_MAGIC)
        del meta[key]
        write_arrays(path, CKPT_MAGIC, meta, named)
        with pytest.raises(ValueError, match="invalid header"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"XXXX" + bytes(16))
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(p)

    def test_truncated_at_every_offset_is_value_error(self, tmp_path):
        arrays = init_params(TINY_MODEL)
        path = save_checkpoint(tmp_path / "t.ckpt", arrays, AdamWState.fresh(arrays),
                               TINY_MODEL, small_train(), epoch=0)
        raw = path.read_bytes()
        cut = tmp_path / "cut.ckpt"
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            with pytest.raises(ValueError):
                load_checkpoint(cut)

    def test_arrays_must_match_header_model(self, tmp_path):
        arrays = init_params(SMALL_MODEL)
        opt = AdamWState.fresh(arrays)
        narrow = dataclasses.replace(SMALL_MODEL, d=4)
        path = save_checkpoint(tmp_path / "m.ckpt", arrays, opt, narrow,
                               small_train(), epoch=0)
        with pytest.raises(ValueError, match="shape"):
            load_checkpoint(path)
        unshared = dataclasses.replace(SMALL_MODEL, unshared_attention=True)
        path = save_checkpoint(tmp_path / "m.ckpt", arrays, opt, unshared,
                               small_train(), epoch=0)
        with pytest.raises(ValueError, match="tf0_wq2"):
            load_checkpoint(path)
        # a resume steps every moment, so a missing one is refused on load
        path = save_checkpoint(tmp_path / "m.ckpt", arrays, opt, SMALL_MODEL,
                               small_train(), epoch=0)
        meta, named = read_arrays(path, CKPT_MAGIC)
        del named["opt_v:enc_ln0_beta"]
        write_arrays(path, CKPT_MAGIC, meta, named)
        with pytest.raises(ValueError, match="enc_ln0_beta"):
            load_checkpoint(path)
        # the header fixes the dtype: a float32 array in a float64 model is refused
        path = save_checkpoint(tmp_path / "m.ckpt", arrays, opt, SMALL_MODEL,
                               small_train(), epoch=0)
        meta, named = read_arrays(path, CKPT_MAGIC)
        named["enc_ln0_beta"] = named["enc_ln0_beta"].astype(np.float32)
        write_arrays(path, CKPT_MAGIC, meta, named)
        with pytest.raises(ValueError, match="dtype float32"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        arrays = {"w": np.ones(3)}
        opt = AdamWState.fresh(arrays)
        path = save_checkpoint(tmp_path / "m.ckpt", arrays, opt,
                               SMALL_MODEL, small_train(), epoch=0)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(path)


class TestTrainingLoop:
    def test_smoke_and_telemetry(self, corpus, tmp_path):
        cfg = small_train(levels=("node", "link", "graph"), epochs=2,
                          episodes_per_level=2, batch_episodes=2, n_way=2,
                          shot_start=2, shot_end=1)
        result = train(corpus, SMALL_MODEL, cfg, out_dir=tmp_path)
        assert len(result.telemetry) == 2
        row = result.telemetry[0]
        assert row["epoch"] == 0
        assert row["shots"] == 2
        assert np.isfinite(row["L_node"]) and np.isfinite(row["L_link"])
        assert np.isfinite(row["L_graph"]) and np.isfinite(row["L_total"])
        # one file per checkpoint: no sidecar, no temp file left behind
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "final.ckpt", "last.ckpt", "telemetry.csv"]
        header = (tmp_path / "telemetry.csv").read_text().splitlines()[0]
        assert header == "epoch,L_node,L_link,L_graph,L_total,lr,shots"

    def test_library_writes_nothing_to_stdout(self, corpus, tmp_path, capfd):
        # stdout belongs to the caller: a harness prints its result last there
        cfg = small_train(levels=("node", "link", "graph"), epochs=1,
                          episodes_per_level=2, n_way=2, shot_start=2, shot_end=1,
                          preflight=True)
        result = train(corpus, SMALL_MODEL, cfg, out_dir=tmp_path)
        for level in ("node", "link", "graph"):
            evaluate(corpus, result.params, SMALL_MODEL, level, n_way=2, k_shot=2,
                     episodes_per_run=2, seeds=(0, 1), query_size=8)
        assert capfd.readouterr().out == ""

    def test_absent_level_reported_as_nan(self, corpus):
        result = train(corpus, SMALL_MODEL, small_train())
        assert np.isnan(result.telemetry[0]["L_link"])
        assert np.isnan(result.telemetry[0]["L_graph"])
        assert np.isfinite(result.telemetry[0]["L_node"])

    def test_deterministic_runs(self, corpus):
        a = train(corpus, SMALL_MODEL, small_train())
        b = train(corpus, SMALL_MODEL, small_train())
        # repr-compare so the nan placeholders for absent levels count as equal
        assert [repr(r) for r in a.telemetry] == [repr(r) for r in b.telemetry]
        for k in a.params:
            assert a.params[k].tobytes() == b.params[k].tobytes()

    def test_loss_decreases_on_easy_task(self, corpus):
        cfg = small_train(epochs=6, episodes_per_level=8, batch_episodes=4,
                          lr=3e-3)
        result = train(corpus, SMALL_MODEL, cfg)
        first, last = result.telemetry[0]["L_node"], result.telemetry[-1]["L_node"]
        assert last < first

    def test_resume_matches_straight_run(self, corpus, tmp_path):
        cfg = small_train(epochs=4)
        straight = train(corpus, SMALL_MODEL, cfg)

        half = train(corpus, SMALL_MODEL, cfg, out_dir=tmp_path / "half",
                     stop_after=1)
        assert len(half.telemetry) == 2
        resumed = train(corpus, SMALL_MODEL, cfg,
                        resume_from=tmp_path / "half" / "final.ckpt")
        assert len(resumed.telemetry) == 2
        for k in straight.params:
            assert np.max(np.abs(straight.params[k] - resumed.params[k])) < 1e-9

    def test_divergence_guard_trips(self, corpus):
        cfg = small_train(divergence_limit=1e-12)
        with pytest.raises(TrainingDiverged):
            train(corpus, SMALL_MODEL, cfg)

    def test_preflight_runs_clean(self, corpus):
        cfg = small_train(epochs=1, preflight=True)
        result = train(corpus, SMALL_MODEL, cfg)
        assert len(result.telemetry) == 1

    def test_preflight_leaves_the_run_unchanged(self, corpus):
        # the check differentiates a copy, so none of its gradient reaches
        # the first optimizer step
        on = train(corpus, SMALL_MODEL, small_train(epochs=1, preflight=True))
        off = train(corpus, SMALL_MODEL, small_train(epochs=1, preflight=False))
        for k in on.params:
            assert on.params[k].tobytes() == off.params[k].tobytes(), k

    def test_float32_preflight_runs_clean(self, corpus):
        model_cfg = dataclasses.replace(SMALL_MODEL, dtype="float32")
        result = train(corpus, model_cfg, small_train(epochs=1, preflight=True))
        assert result.params["enc_ln0_gamma"].dtype == np.float32

    @staticmethod
    def _double_layernorm_x_grad(monkeypatch):
        real = ad.layernorm

        def doubled_x_grad(x, gamma, beta):
            out = real(x, gamma, beta)
            vjp_x = out._vjps[0] if out._vjps else None
            if vjp_x is not None:
                out._vjps = (lambda g: 2.0 * vjp_x(g),) + out._vjps[1:]
            return out

        monkeypatch.setattr(ad, "layernorm", doubled_x_grad)

    def test_float32_preflight_catches_a_wrong_vjp(self, corpus, monkeypatch):
        # finite differences need 64-bit, so a float32 run checks its first
        # episode on a float64 copy rather than not at all
        self._double_layernorm_x_grad(monkeypatch)
        model_cfg = dataclasses.replace(SMALL_MODEL, dtype="float32")
        with pytest.raises(TrainingDiverged, match="preflight gradient check failed"):
            train(corpus, model_cfg, small_train(epochs=1, preflight=True))

    def test_float64_preflight_catches_a_wrong_vjp(self, corpus, monkeypatch):
        # the jitter on the checked copy moves the point, not the verdict:
        # a wrong VJP is wrong everywhere
        self._double_layernorm_x_grad(monkeypatch)
        with pytest.raises(TrainingDiverged, match="preflight gradient check failed"):
            train(corpus, SMALL_MODEL, small_train(epochs=1, preflight=True))

    def test_preflight_passes_across_a_kink(self, monkeypatch):
        # the first training episode of the benchmark's seed-6 desk corpus:
        # its gradient is right, but a central difference of step 1e-5
        # straddles a kink of the loss and read 2.2e-3 on enc_ln1_gamma
        spec = importlib.util.spec_from_file_location(
            "perfbench_inputs", Path(__file__).resolve().parent.parent / "perfbench"
            / "inputs.py")
        inputs = importlib.util.module_from_spec(spec)
        # its dataclasses look their module up while it loads
        monkeypatch.setitem(sys.modules, spec.name, inputs)
        spec.loader.exec_module(inputs)
        corpus = inputs.small_corpus(6, inputs.FULL)
        model_cfg, train_cfg = desk_preset()
        shots = shots_at(0, train_cfg.epochs, train_cfg.shot_start, train_cfg.shot_end)
        episode = _epoch_sampler(corpus, "node", train_cfg, 0).sample(k_shot=shots)
        _preflight(GraphBank(corpus, model_cfg), episode,
                   params_to_tensors(init_params(model_cfg)))

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_preflight_aligns_no_extra_features(self, corpus, monkeypatch, dtype):
        # the check's float64 view of the bank shares the bank's aligned
        # features, so it fits no PCA of its own
        def calls(preflight):
            counted = []
            real = gilt_model.align_features

            def spy(*args, **kwargs):
                counted.append(1)
                return real(*args, **kwargs)

            monkeypatch.setattr(gilt_model, "align_features", spy)
            train(corpus, dataclasses.replace(SMALL_MODEL, dtype=dtype),
                  small_train(epochs=1, preflight=preflight))
            monkeypatch.undo()
            return len(counted)

        off = calls(False)
        assert off > 0 and calls(True) == off

    def test_preflight_checks_the_batch_forward(self, corpus, monkeypatch):
        # the check runs the forward that training runs, on a batch of the
        # first episode alone; each training step then runs one batch
        sizes = []
        real = gilt_model.batch_forward

        def counted(bank, episodes, *args, **kwargs):
            sizes.append(len(episodes))
            return real(bank, episodes, *args, **kwargs)

        monkeypatch.setattr(gilt_model, "batch_forward", counted)
        cfg = small_train(epochs=1, preflight=True)
        train(corpus, SMALL_MODEL, cfg)
        steps = cfg.episodes_per_level // cfg.batch_episodes
        assert sizes[-steps:] == [cfg.batch_episodes] * steps
        assert set(sizes[:-steps]) == {1}


class TestPresets:
    def test_desk_preset_is_small_and_32bit(self):
        # the desk preset trains in float32; a bare ModelConfig stays float64
        model, cfg = desk_preset()
        assert model.dtype == "float32"
        assert model.d <= 64
        assert ModelConfig().dtype == "float64"

    def test_reference_preset_shape(self):
        model, cfg = reference_preset()
        assert model.d == 512
        assert model.encoder_layers == 5
        assert model.transformer_layers == 5
        assert model.n_heads == 4
        assert cfg.lr == 2e-6
        assert cfg.weight_decay == 4e-4
        assert cfg.epochs == 50

    def test_loss_weights(self):
        from gilt.train import LOSS_WEIGHTS
        assert LOSS_WEIGHTS == {"node": 0.53, "link": 2.74, "graph": 0.42}


class TestTelemetryFile:
    def test_float_repr_round_trips(self, tmp_path):
        rows = [{"epoch": 0, "L_node": 1.234567890123456789, "L_link": float("nan"),
                 "L_graph": 0.1, "L_total": 0.7654321, "lr": 1e-3, "shots": 20}]
        path = write_telemetry(rows, tmp_path / "t.csv")
        line = path.read_text().splitlines()[1].split(",")
        assert float(line[1]) == rows[0]["L_node"]
        assert line[0] == "0" and line[6] == "20"
