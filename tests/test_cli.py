import json
import subprocess
import sys

import pytest

from gilt.cli import (
    ConfigError,
    _ablated,
    _apply_thread_cap,
    apply_overrides,
    build_dataclass,
    load_config,
    main,
    parse_config_text,
)
from gilt.model import ModelConfig
from gilt.tokens import read_tokens


class TestConfigFormat:
    def test_parse_basics(self):
        flat = parse_config_text("# comment\n\na=1\n b = 2 \n")
        assert flat == {"a": "1", "b": "2"}

    def test_rejects_bad_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("a=1\nnot a pair\n")

    def test_rejects_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("a=1\na=2\n")

    def test_schema_required(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("model.d=8\n")
        with pytest.raises(ConfigError, match="schema=1"):
            load_config(p)

    def test_overrides_win(self):
        flat = apply_overrides({"a": "1", "b": "2"}, ["a=9"])
        assert flat == {"a": "9", "b": "2"}
        with pytest.raises(ConfigError):
            apply_overrides({}, ["nopair"])

    def test_build_dataclass(self):
        cfg = build_dataclass(ModelConfig, ModelConfig(),
                              {"model.d": "16", "model.dropout": "0.2",
                               "model.unshared_attention": "true"}, "model.")
        assert (cfg.d, cfg.dropout, cfg.unshared_attention) == (16, 0.2, True)

    def test_build_dataclass_rejects_unknown(self):
        with pytest.raises(ConfigError, match="model.bogus"):
            build_dataclass(ModelConfig, ModelConfig(), {"model.bogus": "1"},
                            "model.")

    def test_build_dataclass_rejects_bad_value(self):
        with pytest.raises(ConfigError, match="model.d"):
            build_dataclass(ModelConfig, ModelConfig(), {"model.d": "eight"},
                            "model.")


class TestThreadCap:
    def test_sets_numeric_stack_vars(self, monkeypatch):
        monkeypatch.setenv("GILT_THREADS", "2")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        _apply_thread_cap()
        import os
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
        assert os.environ["OMP_NUM_THREADS"] == "2"

    def test_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("GILT_THREADS", "lots")
        with pytest.raises(ConfigError):
            _apply_thread_cap()


class TestAblations:
    def test_toggles(self):
        base = ModelConfig(encoder_layers=4, transformer_layers=2, n_heads=2)
        assert _ablated(base, ["no-transformer"]).transformer_layers == 0
        assert _ablated(base, ["no-encoder"]).encoder_layers == 0
        assert _ablated(base, ["encoder-2"]).encoder_layers == 2

    def test_incompatible_with_shallow_checkpoint(self):
        base = ModelConfig(encoder_layers=1, n_heads=2)
        with pytest.raises(ConfigError, match="encoder-2"):
            _ablated(base, ["encoder-2"])


SYNTH_FLAGS = ["--graphs", "3", "--classes", "3", "--per-class", "12",
               "--feature-dim", "8", "--seed", "0"]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["synth", "--out", str(out)] + SYNTH_FLAGS) == 0
    return out


@pytest.fixture(scope="module")
def trained(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = out / "run.cfg"
    cfg.write_text(
        "schema=1\n"
        f"data.registry={corpus_dir / 'registry.json'}\n"
        "data.dataset=synth\n"
        "model.d=6\nmodel.encoder_layers=2\nmodel.transformer_layers=1\n"
        "model.n_heads=2\nmodel.ffn_hidden=12\n"
        "train.epochs=2\ntrain.episodes_per_level=4\ntrain.batch_episodes=2\n"
        "train.n_way=2\ntrain.query_size=6\n"
        "train.shot_start=2\ntrain.shot_end=1\ntrain.levels=node,link\n")
    assert main(["pretrain", str(cfg), "--out", str(out / "a")]) == 0
    return out


class TestSynth:
    def test_outputs(self, corpus_dir):
        assert (corpus_dir / "g0.json").exists()
        assert (corpus_dir / "manifest.json").exists()
        reg = json.loads((corpus_dir / "registry.json").read_text())
        assert "synth" in reg and reg["g1"]["path"] == "g1.json"

    def test_deterministic(self, corpus_dir, tmp_path):
        assert main(["synth", "--out", str(tmp_path)] + SYNTH_FLAGS) == 0
        assert ((tmp_path / "g0.json").read_bytes()
                == (corpus_dir / "g0.json").read_bytes())


class TestPretrainCommand:
    def test_artifacts(self, trained):
        out = trained / "a"
        assert (out / "final.ckpt").exists()
        assert (out / "telemetry.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "pretrain"
        assert manifest["config"]["model.d"] == "6"
        assert len(manifest["checkpoints"]) == 2
        assert len(manifest["checkpoints"][0]["sha256"]) == 16

    def test_rerun_same_seed_identical_telemetry(self, trained):
        cfg = trained / "run.cfg"
        assert main(["pretrain", str(cfg), "--out", str(trained / "b")]) == 0
        assert ((trained / "a" / "telemetry.csv").read_bytes()
                == (trained / "b" / "telemetry.csv").read_bytes())

    def test_missing_corpus_field_names_it(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("schema=1\ndata.dataset=synth\n")
        assert main(["pretrain", str(cfg), "--out", str(tmp_path)]) == 2
        assert "data.registry" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("schema=1\nmodle.d=8\n")
        assert main(["pretrain", str(cfg), "--out", str(tmp_path)]) == 2
        assert "modle.d" in capsys.readouterr().err

    def test_missing_registry_file_is_data_error(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("schema=1\ndata.registry=/nope/registry.json\n"
                       "data.dataset=synth\n")
        assert main(["pretrain", str(cfg), "--out", str(tmp_path)]) == 3

    def test_resume_from_missing_checkpoint_exits_3(self, trained, tmp_path, capsys):
        code = main(["pretrain", str(trained / "run.cfg"), "--out", str(tmp_path),
                     "--resume", str(tmp_path / "nope.ckpt")])
        assert code == 3
        assert "cannot load checkpoint" in capsys.readouterr().err

    def test_resume_from_truncated_checkpoint_exits_3(self, trained, tmp_path, capsys):
        src = trained / "a" / "last.ckpt"
        raw = src.read_bytes()
        cut = tmp_path / "cut.ckpt"
        cut.with_suffix(".ckpt.json").write_text(src.with_suffix(".ckpt.json").read_text())
        for n in (0, 3, 4, 9, 10, len(raw) // 2, len(raw) - 1):
            cut.write_bytes(raw[:n])
            code = main(["pretrain", str(trained / "run.cfg"),
                         "--out", str(tmp_path / "out"), "--resume", str(cut)])
            assert code == 3, n
            assert "cannot load checkpoint" in capsys.readouterr().err, n


class TestEvalCommand:
    def test_report_and_manifest(self, trained, corpus_dir, tmp_path):
        ckpt = trained / "a" / "final.ckpt"
        code = main(["eval", str(ckpt), "synth",
                     "--registry", str(corpus_dir / "registry.json"),
                     "--level", "node", "--n", "2", "--k", "2",
                     "--runs", "2", "--episodes", "2", "--queries", "16",
                     "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["level"] == "node"
        assert (tmp_path / "results.csv").exists()
        assert json.loads((tmp_path / "manifest.json").read_text())["checkpoints"]

    def test_truncated_checkpoint_exits_3(self, corpus_dir, tmp_path, capsys):
        from gilt.model import init_params
        from gilt.train import AdamWState, TrainConfig, save_checkpoint

        cfg = ModelConfig(d=2, encoder_layers=1, transformer_layers=0)
        arrays = init_params(cfg)
        path = save_checkpoint(tmp_path / "t.ckpt", arrays, AdamWState.fresh(arrays),
                               cfg, TrainConfig(), epoch=0)
        raw = path.read_bytes()
        cut = tmp_path / "cut.ckpt"
        cut.with_suffix(".ckpt.json").write_text(path.with_suffix(".ckpt.json").read_text())
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            code = main(["eval", str(cut), str(corpus_dir), "--level", "node",
                         "--out", str(tmp_path / "out")])
            assert code == 3, n
        assert "cannot load checkpoint" in capsys.readouterr().err

    def test_dataset_as_plain_path(self, trained, corpus_dir, tmp_path):
        ckpt = trained / "a" / "final.ckpt"
        code = main(["eval", str(ckpt), str(corpus_dir / "g0.json"),
                     "--level", "node", "--n", "2", "--k", "2",
                     "--runs", "1", "--episodes", "2", "--queries", "16",
                     "--out", str(tmp_path)])
        assert code == 0

    def test_oversized_k_is_protocol_error(self, trained, corpus_dir, tmp_path,
                                           capsys):
        ckpt = trained / "a" / "final.ckpt"
        code = main(["eval", str(ckpt), "synth",
                     "--registry", str(corpus_dir / "registry.json"),
                     "--level", "node", "--n", "2", "--k", "999",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "protocol error" in capsys.readouterr().err

    def test_sweep(self, trained, corpus_dir, tmp_path):
        ckpt = trained / "a" / "final.ckpt"
        code = main(["eval", str(ckpt), "synth",
                     "--registry", str(corpus_dir / "registry.json"),
                     "--level", "node", "--n", "2", "--sweep-k", "1,2",
                     "--runs", "2", "--episodes", "2", "--queries", "16",
                     "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "k_shot,mean_accuracy,sd_accuracy"
        assert len(lines) == 3

    def test_eval_time_ablation_runs(self, trained, corpus_dir, tmp_path):
        ckpt = trained / "a" / "final.ckpt"
        code = main(["eval", str(ckpt), "synth",
                     "--registry", str(corpus_dir / "registry.json"),
                     "--level", "node", "--n", "2", "--k", "2",
                     "--runs", "1", "--episodes", "2", "--queries", "16",
                     "--ablate", "no-transformer", "--out", str(tmp_path)])
        assert code == 0

    def test_missing_checkpoint(self, corpus_dir, tmp_path):
        code = main(["eval", str(tmp_path / "none.ckpt"), "synth",
                     "--registry", str(corpus_dir / "registry.json"),
                     "--level", "node", "--out", str(tmp_path)])
        assert code == 3


class TestTokenizeCommand:
    def test_export_and_header(self, corpus_dir, tmp_path):
        code = main(["tokenize", str(corpus_dir / "g0.json"),
                     "--level", "node", "--n", "2", "--k", "2",
                     "--queries", "4", "--out", str(tmp_path)])
        assert code == 0
        ts = read_tokens(tmp_path / "tokens.bin")
        assert (ts.n_way, ts.k_shot, ts.d) == (2, 2, 32)
        assert ts.support.shape == (4, 64)
        assert not ts.query[:, 32:].any()

    def test_deterministic(self, corpus_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["tokenize", str(corpus_dir / "g0.json"),
                         "--level", "node", "--n", "2", "--k", "2",
                         "--queries", "4", "--out", str(out)]) == 0
        assert (a / "tokens.bin").read_bytes() == (b / "tokens.bin").read_bytes()

    def test_bad_path_is_data_error(self, tmp_path):
        code = main(["tokenize", str(tmp_path / "missing.json"),
                     "--level", "node", "--out", str(tmp_path)])
        assert code == 3


class TestUsageErrors:
    def test_argparse_usage_exit_code(self):
        with pytest.raises(SystemExit) as ei:
            main(["eval"])
        assert ei.value.code == 2

    def test_console_script_help(self):
        proc = subprocess.run([sys.executable, "-m", "gilt.cli", "--help"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert "pretrain" in proc.stdout
