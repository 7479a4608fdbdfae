import argparse
import json
import re
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import gilt.cli
from gilt.cli import (
    ConfigError,
    _ablated,
    _apply_thread_cap,
    apply_overrides,
    build_dataclass,
    build_parser,
    load_config,
    main,
    parse_config_text,
)
from gilt.arrayfile import read_arrays, write_arrays
from gilt.model import ModelConfig
from gilt.tokens import read_tokens
from gilt.train import CKPT_MAGIC


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


# header metas that parse but are falsy, so a truthiness test would skip them
FALSY_META = ["[]", "0", "null", '""']


def _with_meta(src, tmp_path, meta: str):
    """A copy of checkpoint src whose header meta is the JSON text meta."""
    _, arrays = read_arrays(src, CKPT_MAGIC)
    return write_arrays(tmp_path / "t.ckpt", CKPT_MAGIC, json.loads(meta), arrays)


GOOD_GRAPH = {"nodes": 4, "edges": [[0, 1], [1, 2], [2, 3]],
              "features": [[1.0], [2.0], [3.0], [4.0]], "labels": [0, 1, 0, 1],
              "node_split": [0, 0, 2, 2]}

# (registry entry, graph file payload): each one malformed in one place
MALFORMED_DATA = {
    "graph-not-object": ({"path": "g.json"}, 3),
    "ragged-features": ({"path": "g.json"},
                        {**GOOD_GRAPH, "features": [[1.0], [2.0, 3.0], [4.0], [5.0]]}),
    "nodes-not-integer": ({"path": "g.json"}, {**GOOD_GRAPH, "nodes": "x"}),
    "endpoint-not-integer": ({"path": "g.json"}, {**GOOD_GRAPH, "edges": [[0, "a"]]}),
    "endpoint-fractional": ({"path": "g.json"}, {**GOOD_GRAPH, "edges": [[0, 1.5]]}),
    "label-not-integer": ({"path": "g.json"}, {**GOOD_GRAPH, "labels": [0, "b", 0, 1]}),
    "edge-row-of-3": ({"path": "g.json"}, {**GOOD_GRAPH, "edges": [[0, 1, 2]]}),
    "edge-row-of-4": ({"path": "g.json"}, {**GOOD_GRAPH, "edges": [[0, 1, 1, 0]]}),
    "graph-split-tag-out-of-range": ({"path": "g.json"},
                                     {**GOOD_GRAPH, "graph_split_tag": 3}),
    "graph-split-tag-fractional": ({"path": "g.json"},
                                   {**GOOD_GRAPH, "graph_split_tag": 1.5}),
    "features-zero-width": ({"path": "g.json"}, {**GOOD_GRAPH, "features": [[], [], [], []]}),
    "label-negative": ({"path": "g.json"}, {**GOOD_GRAPH, "labels": [0, -3, 0, -3]}),
    "graph-label-negative": ({"path": "g.json"}, {**GOOD_GRAPH, "graph_label": -1}),
    "entry-not-object": (3, GOOD_GRAPH),
    "entry-without-path": ({}, GOOD_GRAPH),
}


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

    @pytest.mark.parametrize("flag, value", [
        ("--graphs", "-2"), ("--graphs", "0"), ("--classes", "0"), ("--per-class", "0"),
        ("--feature-dim", "0"), ("--graph-classes", "-2"), ("--seed", "-1"),
        ("--intra", "1.5"), ("--inter", "-0.1"), ("--intra", "nan"),
        ("--noise-sd", "-1"), ("--separation", "nan"),
    ])
    def test_bad_count_exits_2_before_writing(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        code = main(["synth", "--out", str(out)] + SYNTH_FLAGS + [flag, value])
        err = capsys.readouterr().err
        assert code == 2
        assert flag in err and "Traceback" not in err
        assert not out.exists()

    def test_manifest_stamps_the_package_checkout(self, tmp_path, monkeypatch):
        # a caller standing in another git repository must not stamp its commit
        other = tmp_path / "other"
        other.mkdir()
        git = ["git", "-C", str(other), "-c", "user.name=t", "-c", "user.email=t@t"]
        subprocess.run(git + ["init", "-q"], check=True)
        subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "init"], check=True)
        theirs = subprocess.run(git + ["rev-parse", "--short", "HEAD"], check=True,
                                capture_output=True, text=True).stdout.strip()
        package = Path(gilt.cli.__file__).resolve().parent
        ours = subprocess.run(["git", "-C", str(package), "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True).stdout.strip() or "unknown"
        monkeypatch.chdir(other)
        assert main(["synth", "--out", str(tmp_path / "out")] + SYNTH_FLAGS) == 0
        stamp = json.loads((tmp_path / "out" / "manifest.json").read_text())["version"]
        assert stamp["git"] != theirs
        assert stamp["git"] == ours


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
        assert set(manifest["threads"]) == {
            "GILT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
            "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"}
        assert {"numpy", "scipy"} <= set(manifest["version"])

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

    # train.beta1 and model.temperature were fields until they became constants
    @pytest.mark.parametrize("line, flags, key", [
        ("modle.d=8\n", [], "modle.d"),
        ("", ["--set", "train.beta1=0.8"], "train.beta1"),
        ("", ["--set", "model.temperature=5"], "model.temperature"),
    ], ids=["typo-in-file", "beta1-flag", "temperature-flag"])
    def test_unknown_key_rejected(self, tmp_path, capsys, line, flags, key):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("schema=1\n" + line)
        assert main(["pretrain", str(cfg), "--out", str(tmp_path)] + flags) == 2
        assert key in capsys.readouterr().err

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
        for n in (0, 3, 4, 9, 10, len(raw) // 2, len(raw) - 1):
            cut.write_bytes(raw[:n])
            code = main(["pretrain", str(trained / "run.cfg"),
                         "--out", str(tmp_path / "out"), "--resume", str(cut)])
            assert code == 3, n
            assert "cannot load checkpoint" in capsys.readouterr().err, n

    @pytest.mark.parametrize("overrides", [
        ["--set", "model.d=4", "--epochs", "3"],
        ["--set", "model.d=4"],
        ["--set", "model.dtype=float32"],
    ], ids=["other-width-epochs-left", "other-width-no-epochs-left", "other-dtype"])
    def test_resume_with_another_model_exits_3(self, trained, tmp_path, capsys,
                                               overrides):
        out = tmp_path / "out"
        code = main(["pretrain", str(trained / "run.cfg"), "--out", str(out),
                     "--resume", str(trained / "a" / "last.ckpt")] + overrides)
        assert code == 3
        assert "this run's model" in capsys.readouterr().err
        assert not (out / "final.ckpt").exists()

    # the run config has d=6, so the token width is 12
    @pytest.mark.parametrize("value", [
        "model.n_heads=5", "model.n_heads=0", "model.dtype=float16",
        "model.encoder_variant=gat", "model.align_mode=foo", "model.d=0",
        "model.encoder_layers=-1", "model.transformer_layers=-1",
        "model.dropout=1.0", "model.dropout=-0.1", "train.feat_drop=1.0",
        "train.edge_drop=1.0", "train.batch_episodes=0", "model.seed=-1",
        "train.seed=-1", "model.ffn_hidden=-1", "train.n_way=1", "train.query_size=0",
        "train.shot_start=0", "train.shot_end=0", "train.epochs=0", "train.epochs=-3",
        "train.lr=nan", "train.lr=inf", "train.lr=-5", "train.weight_decay=nan",
        "train.weight_decay=-1", "train.divergence_limit=nan",
        "train.divergence_limit=0",
    ])
    def test_bad_config_value_exits_2(self, trained, tmp_path, capsys, value):
        code = main(["pretrain", str(trained / "run.cfg"), "--out", str(tmp_path),
                     "--set", value])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and err.startswith("error: ")
        assert not (tmp_path / "final.ckpt").exists()

    # the corpus has 3 classes of 12 nodes and no graph labels
    @pytest.mark.parametrize("value", ["train.n_way=10", "train.levels=graph",
                                       "train.shot_start=50"])
    def test_infeasible_episode_is_protocol_error(self, trained, tmp_path, capsys,
                                                  value):
        code = main(["pretrain", str(trained / "run.cfg"), "--out", str(tmp_path),
                     "--set", value])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: protocol error: ")
        assert not (tmp_path / "final.ckpt").exists()

    def test_divergence_exits_4(self, trained, tmp_path, capsys):
        # every loss is above the limit, so the first step counts as diverged
        code = main(["pretrain", str(trained / "run.cfg"), "--out", str(tmp_path),
                     "--set", "train.divergence_limit=1e-12"])
        err = capsys.readouterr().err
        assert code == 4
        assert "Traceback" not in err and err.startswith("error: ")
        assert not (tmp_path / "final.ckpt").exists()

    def test_boundary_config_values_train(self, trained, tmp_path):
        # the well-formed control for the cases above: each value at its edge
        code = main(["pretrain", str(trained / "run.cfg"), "--out", str(tmp_path),
                     "--epochs", "1", "--set", "model.n_heads=12",
                     "--set", "model.encoder_layers=0", "--set", "model.dropout=0.0",
                     "--set", "train.feat_drop=0.0", "--set", "train.batch_episodes=1",
                     "--set", "train.lr=0.0", "--set", "train.weight_decay=0.0",
                     "--set", "train.divergence_limit=inf"])
        assert code == 0

    def test_resume_with_same_model_trains_on(self, trained, tmp_path):
        out = tmp_path / "out"
        code = main(["pretrain", str(trained / "run.cfg"), "--out", str(out),
                     "--resume", str(trained / "a" / "last.ckpt"), "--epochs", "3"])
        assert code == 0
        assert (out / "final.ckpt").exists()


def _no_constant(name):
    raise ValueError(f"{name} is not strict JSON")


class TestEvalCommand:
    def test_report_and_manifest(self, trained, corpus_dir, tmp_path):
        ckpt = trained / "a" / "final.ckpt"
        code = main(["eval", str(ckpt), "synth",
                     "--registry", str(corpus_dir / "registry.json"),
                     "--level", "node", "--n", "2", "--k", "2",
                     "--runs", "2", "--episodes", "2", "--queries", "16",
                     "--out", str(tmp_path)])
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json",
                                                              "report.json"]
        [report] = json.loads((tmp_path / "report.json").read_text(),
                              parse_constant=_no_constant)
        assert (report["level"], report["k_shot"]) == ("node", 2)
        assert report["mean_auc"] is None and report["sd_hits"] is None
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
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            code = main(["eval", str(cut), str(corpus_dir), "--level", "node",
                         "--out", str(tmp_path / "out")])
            assert code == 3, n
        assert "cannot load checkpoint" in capsys.readouterr().err

    def test_version_1_checkpoint_exits_3(self, corpus_dir, tmp_path, capsys):
        # the header of the format that kept its configs in a sidecar file
        old = tmp_path / "old.ckpt"
        old.write_bytes(b"GCKP" + struct.pack("<HI", 1, 0))
        code = main(["eval", str(old), str(corpus_dir), "--level", "node",
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert "unsupported GCKP version 1" in capsys.readouterr().err

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

    def test_late_oversized_k_is_refused_before_any_forward(
            self, trained, corpus_dir, tmp_path, capsys, monkeypatch):
        import gilt.evaluate

        calls = []
        real = gilt.evaluate.batch_forward
        monkeypatch.setattr(gilt.evaluate, "batch_forward",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        code = main(["eval", str(trained / "a" / "final.ckpt"), "synth",
                     "--registry", str(corpus_dir / "registry.json"),
                     "--level", "node", "--n", "2", "--k", "1,2,999",
                     "--runs", "2", "--episodes", "2", "--queries", "16",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "protocol error" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()
        assert calls == []

    def test_sweep(self, trained, corpus_dir, tmp_path, capsys):
        # a link sweep keeps every metric and --hits-k for each shot count
        ckpt = trained / "a" / "final.ckpt"
        code = main(["eval", str(ckpt), "synth",
                     "--registry", str(corpus_dir / "registry.json"),
                     "--level", "link", "--n", "2", "--k", "1,2", "--hits-k", "3",
                     "--runs", "2", "--episodes", "2", "--queries", "16",
                     "--out", str(tmp_path)])
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json",
                                                              "report.json"]
        reports = json.loads((tmp_path / "report.json").read_text(),
                             parse_constant=_no_constant)
        assert [r["k_shot"] for r in reports] == [1, 2]
        for r in reports:
            assert r["hits_k"] == 3
            assert 0.0 <= r["mean_auc"] <= 1.0 and 0.0 <= r["mean_hits"] <= 1.0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines[:2]] == ["k=1", "k=2"]
        assert all(" auc " in line and " hits@3 " in line for line in lines[:2])

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

    def test_array_of_another_dtype_than_header_exits_3(self, trained, corpus_dir,
                                                         tmp_path, capsys):
        meta, arrays = read_arrays(trained / "a" / "final.ckpt", CKPT_MAGIC)
        arrays["enc_ln0_gamma"] = arrays["enc_ln0_gamma"].astype("float32")
        ckpt = write_arrays(tmp_path / "t.ckpt", CKPT_MAGIC, meta, arrays)
        code = main(["eval", str(ckpt), "synth",
                     "--registry", str(corpus_dir / "registry.json"),
                     "--level", "node", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: cannot load checkpoint") and "float32" in err

    def test_checkpoint_that_is_a_directory_exits_3(self, corpus_dir, tmp_path, capsys):
        code = main(["eval", str(tmp_path), "synth",
                     "--registry", str(corpus_dir / "registry.json"),
                     "--level", "node", "--out", str(tmp_path / "out")])
        assert code == 3
        assert "cannot load checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("meta", FALSY_META)
    def test_falsy_header_meta_exits_3(self, trained, corpus_dir, tmp_path, capsys, meta):
        ckpt = _with_meta(trained / "a" / "final.ckpt", tmp_path, meta)
        code = main(["eval", str(ckpt), "synth",
                     "--registry", str(corpus_dir / "registry.json"),
                     "--level", "node", "--out", str(tmp_path / "out")])
        assert code == 3
        assert "not a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("entry, graph", MALFORMED_DATA.values(),
                             ids=MALFORMED_DATA.keys())
    def test_malformed_dataset_exits_3(self, trained, tmp_path, entry, graph):
        (tmp_path / "g.json").write_text(json.dumps(graph))
        (tmp_path / "registry.json").write_text(json.dumps({"bad": entry}))
        code = main(["eval", str(trained / "a" / "final.ckpt"), "bad",
                     "--registry", str(tmp_path / "registry.json"),
                     "--level", "node", "--out", str(tmp_path / "out")])
        assert code == 3

    @pytest.mark.parametrize("label", ["1.5", "2.0000001"])
    def test_fractional_edge_list_label_exits_3(self, trained, tmp_path, capsys, label):
        data = tmp_path / "d"
        data.mkdir()
        (data / "edges.tsv").write_text("0\t1\n1\t2\n2\t3\n")
        (data / "features.csv").write_text("1.0\n2.0\n3.0\n4.0\n")
        (data / "labels.csv").write_text(f"0\n{label}\n0\n1\n")
        (tmp_path / "registry.json").write_text(
            json.dumps({"bad": {"path": "d", "format": "edge-list"}}))
        code = main(["eval", str(trained / "a" / "final.ckpt"), "bad",
                     "--registry", str(tmp_path / "registry.json"),
                     "--level", "node", "--out", str(tmp_path / "out")])
        assert code == 3
        assert "must hold integers" in capsys.readouterr().err

    def test_well_formed_dataset_control(self, trained, tmp_path):
        # the payload every MALFORMED_DATA case starts from loads and evaluates
        (tmp_path / "g.json").write_text(json.dumps(GOOD_GRAPH))
        (tmp_path / "registry.json").write_text(json.dumps({"ok": {"path": "g.json"}}))
        code = main(["eval", str(trained / "a" / "final.ckpt"), "ok",
                     "--registry", str(tmp_path / "registry.json"),
                     "--level", "node", "--n", "2", "--k", "1", "--runs", "1",
                     "--episodes", "1", "--out", str(tmp_path / "out")])
        assert code == 0

    def test_unknown_split_tag_exits_3(self, trained, tmp_path, capsys):
        # GOOD_GRAPH plus node 4 tagged 7, which is neither train, valid nor test
        graph = {**GOOD_GRAPH, "nodes": 5, "edges": GOOD_GRAPH["edges"] + [[3, 4]],
                 "features": GOOD_GRAPH["features"] + [[5.0]], "labels": [0, 1, 0, 1, 0],
                 "node_split": [0, 0, 2, 2, 7]}
        (tmp_path / "g.json").write_text(json.dumps(graph))
        (tmp_path / "registry.json").write_text(json.dumps({"bad": {"path": "g.json"}}))
        code = main(["eval", str(trained / "a" / "final.ckpt"), "bad",
                     "--registry", str(tmp_path / "registry.json"),
                     "--level", "node", "--n", "2", "--k", "1", "--runs", "1",
                     "--episodes", "1", "--out", str(tmp_path / "out")])
        assert code == 3
        assert "node_split must hold split tags" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--level", "node", "--runs", "0"],
        ["--level", "node", "--episodes", "0"],
        ["--level", "link", "--n", "2", "--hits-k", "0"],
    ], ids=["runs-0", "episodes-0", "hits-k-0"])
    def test_degenerate_protocol_flag_exits_2(self, trained, corpus_dir, tmp_path,
                                              capsys, flags):
        code = main(["eval", str(trained / "a" / "final.ckpt"), "synth",
                     "--registry", str(corpus_dir / "registry.json"),
                     "--k", "2", "--queries", "16", "--out", str(tmp_path)] + flags)
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and flags[-2] in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("value", ["1,x", "1,,2", "two", "1.5"])
    def test_malformed_k_is_usage_error(self, trained, corpus_dir, tmp_path,
                                        capsys, value):
        code = main(["eval", str(trained / "a" / "final.ckpt"), "synth",
                     "--registry", str(corpus_dir / "registry.json"),
                     "--level", "node", "--n", "2", "--k", value,
                     "--out", str(tmp_path)])
        assert code == 2
        assert "--k" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()


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

    @pytest.mark.parametrize("name", ["missing.ckpt", "."])
    def test_unreadable_checkpoint_exits_3(self, corpus_dir, tmp_path, capsys, name):
        code = main(["tokenize", str(corpus_dir / "g0.json"), "--level", "node",
                     "--n", "2", "--k", "2", "--checkpoint", str(tmp_path / name),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert "cannot load checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("meta", FALSY_META)
    def test_falsy_header_meta_exits_3(self, trained, corpus_dir, tmp_path, capsys, meta):
        ckpt = _with_meta(trained / "a" / "final.ckpt", tmp_path, meta)
        code = main(["tokenize", str(corpus_dir / "g0.json"), "--level", "node",
                     "--n", "2", "--k", "2", "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert "not a JSON object" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, corpus_dir, tmp_path, capsys):
        code = main(["tokenize", str(corpus_dir / "g0.json"), "--level", "node",
                     "--seed", "-1", "--out", str(tmp_path)])
        assert code == 2
        assert "--seed" in capsys.readouterr().err

    def test_with_trained_checkpoint(self, trained, corpus_dir, tmp_path):
        code = main(["tokenize", str(corpus_dir / "g0.json"), "--level", "node",
                     "--n", "2", "--k", "2", "--queries", "4",
                     "--checkpoint", str(trained / "a" / "final.ckpt"),
                     "--out", str(tmp_path)])
        assert code == 0
        assert read_tokens(tmp_path / "tokens.bin").d == 6


class TestUsageErrors:
    @pytest.mark.parametrize("command", ["synth", "pretrain", "eval", "tokenize"])
    def test_out_naming_a_file_exits_2(self, trained, corpus_dir, tmp_path, capsys,
                                       command):
        taken = tmp_path / "taken"
        taken.write_text("")
        argv = {
            "synth": ["synth"] + SYNTH_FLAGS,
            "pretrain": ["pretrain", str(trained / "run.cfg")],
            "eval": ["eval", str(trained / "a" / "final.ckpt"), str(corpus_dir),
                     "--level", "node", "--n", "2", "--k", "2"],
            "tokenize": ["tokenize", str(corpus_dir / "g0.json"), "--level", "node",
                         "--n", "2", "--k", "2"],
        }[command]
        code = main(argv + ["--out", str(taken)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: cannot create output directory {taken}")

    @pytest.mark.parametrize("level, split", [("node", "node"), ("link", "edge")])
    @pytest.mark.parametrize("command", ["pretrain", "eval", "tokenize"])
    def test_edge_list_dataset_has_no_splits(self, trained, tmp_path, capsys, command,
                                             level, split):
        # an edge-list entry carries no split tags and loading assigns none,
        # so every command that draws episodes refuses it
        data = tmp_path / "d"
        data.mkdir()
        (data / "edges.tsv").write_text("0\t1\n1\t2\n2\t3\n3\t0\n")
        (data / "features.csv").write_text("1.0\n2.0\n3.0\n4.0\n")
        (data / "labels.csv").write_text("0\n1\n0\n1\n")
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps({"e": {"path": "d", "format": "edge-list"}}))
        argv = {
            "pretrain": ["pretrain", str(trained / "run.cfg"),
                         "--set", f"data.registry={registry}", "--set", "data.dataset=e",
                         "--set", f"train.levels={level}"],
            "eval": ["eval", str(trained / "a" / "final.ckpt"), "e",
                     "--registry", str(registry), "--level", level, "--n", "2", "--k", "1"],
            "tokenize": ["tokenize", "e", "--registry", str(registry), "--level", level,
                         "--n", "2", "--k", "1"],
        }[command]
        code = main(argv + ["--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"error: protocol error: graph 0 has no {split} split; "
                       f"assign one first\n")

    def test_argparse_usage_exit_code(self):
        with pytest.raises(SystemExit) as ei:
            main(["eval"])
        assert ei.value.code == 2

    def test_console_script_help(self):
        proc = subprocess.run([sys.executable, "-m", "gilt.cli", "--help"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert "pretrain" in proc.stdout


class TestDocs:
    @staticmethod
    def _section(text: str, title: str) -> str:
        start = text.index(f"\n## {title}\n")
        end = text.find("\n## ", start + 1)
        return text[start:end if end >= 0 else None]

    def test_every_documented_flag_is_a_parser_option(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        documented = set()
        for title in ("Command line", "Artifacts"):
            documented |= set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*",
                                         self._section(readme, title)))
        commands = next(a for a in build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        options = {flag for sub in commands.values() for action in sub._actions
                   for flag in action.option_strings}
        assert documented, "no flags found in README"
        assert not documented - options, f"no parser has {sorted(documented - options)}"
