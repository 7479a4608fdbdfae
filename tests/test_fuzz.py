"""Fuzzing the CLI's inputs.

Binary artifacts: a checkpoint or token file with 1-3 bytes flipped,
inserted or deleted must be refused, and every CLI command that reads a
checkpoint must exit 3 on it with a one-line error.

Text inputs: a graph file or a registry with one JSON value replaced or
deleted (or 1-3 bytes corrupted), or a config with 1-2 values set, must
leave `eval`, `tokenize` and `pretrain` with exit 0, 2 or 3, with a
one-line error and never a traceback. Exit 4 (divergence or a failed
preflight gradient check) is never right for these inputs.
"""
import contextlib
import copy
import io
import json

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gilt.cli import main
from gilt.model import ModelConfig, init_params
from gilt.tokens import read_tokens
from gilt.train import AdamWState, TrainConfig, load_checkpoint, save_checkpoint

TINY = ModelConfig(d=2, encoder_layers=1, transformer_layers=0)
# derandomized, so the examples are the same on every run; each is a few ms
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=400)
FUZZ_CLI = settings(FUZZ, max_examples=100)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A tiny-model checkpoint, a run config and corpus it resumes on, and
    the tokens.bin `gilt tokenize` exports with it."""
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["synth", "--out", str(root / "corpus"), "--graphs", "2",
                 "--classes", "2", "--per-class", "8", "--feature-dim", "4"]) == 0
    arrays = init_params(TINY)
    save_checkpoint(root / "clean.ckpt", arrays, AdamWState.fresh(arrays), TINY,
                    TrainConfig(epochs=1), epoch=0)
    (root / "run.cfg").write_text(
        "schema=1\ndata.registry=corpus/registry.json\ndata.dataset=synth\n"
        "model.d=2\nmodel.encoder_layers=1\nmodel.transformer_layers=0\n"
        "train.epochs=1\n")
    assert main(_command("tokenize", root, root / "clean.ckpt")) == 0
    return root


def _command(name: str, root, ckpt) -> list[str]:
    out = ["--out", str(root / "out" / name)]
    if name == "eval":
        return ["eval", str(ckpt), str(root / "corpus"), "--level", "node",
                "--n", "2", "--k", "2", "--runs", "1", "--episodes", "1",
                "--queries", "4"] + out
    if name == "pretrain":
        return ["pretrain", str(root / "run.cfg"), "--resume", str(ckpt)] + out
    return ["tokenize", str(root / "corpus" / "g0.json"), "--level", "node",
            "--n", "2", "--k", "2", "--queries", "4", "--checkpoint", str(ckpt)] + out


def _corrupt(data, raw: bytes) -> bytes:
    """raw with 1-3 bytes flipped, inserted or deleted, never unchanged."""
    out = bytearray(raw)
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(out) - 1))
        kind = data.draw(st.sampled_from(("flip", "insert", "delete")))
        if kind == "flip":
            out[at] ^= data.draw(st.integers(1, 255))
        elif kind == "insert":
            out.insert(at, data.draw(st.integers(0, 255)))
        else:
            del out[at]
    assume(out != raw)
    return bytes(out)


def _run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


@FUZZ
@given(data=st.data())
def test_corrupted_checkpoint_is_value_error(files, data):
    path = files / "fuzzed.ckpt"
    path.write_bytes(_corrupt(data, (files / "clean.ckpt").read_bytes()))
    with pytest.raises(ValueError):
        load_checkpoint(path)


@FUZZ
@given(data=st.data())
def test_corrupted_token_file_is_value_error(files, data):
    path = files / "fuzzed.bin"
    path.write_bytes(_corrupt(data, (files / "out" / "tokenize" / "tokens.bin").read_bytes()))
    with pytest.raises(ValueError):
        read_tokens(path)


@pytest.mark.parametrize("command", ["eval", "pretrain", "tokenize"])
def test_clean_checkpoint_control(files, command):
    # the unmutated file passes each command, so the exit 3 below is the corruption's
    code, err = _run(_command(command, files, files / "clean.ckpt"))
    assert code == 0, err


@pytest.mark.parametrize("command", ["eval", "pretrain", "tokenize"])
@FUZZ_CLI
@given(data=st.data())
def test_corrupted_checkpoint_exits_3(files, command, data):
    path = files / f"fuzzed-{command}.ckpt"
    path.write_bytes(_corrupt(data, (files / "clean.ckpt").read_bytes()))
    code, err = _run(_command(command, files, path))
    assert code == 3, err
    assert "Traceback" not in err and err.startswith("error: cannot load checkpoint")


# ---------------------------------------------------------------------------
# text inputs
# ---------------------------------------------------------------------------

# 8 nodes, two alternating classes, train/test halves: enough for 2-way
# 1-shot node episodes in eval and pretrain, and 2 train edges for link ones
BASE_GRAPH = {
    "nodes": 8,
    "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 7], [0, 7],
              [0, 4], [2, 6]],
    "features": [[1.0, 0.0], [0.0, 1.0], [1.0, 0.2], [0.1, 1.0], [0.9, 0.0],
                 [0.0, 0.8], [1.0, 0.1], [0.2, 1.0]],
    "labels": [0, 1, 0, 1, 0, 1, 0, 1],
    "node_split": [0, 0, 0, 0, 2, 2, 2, 2],
    "edge_split": [0, 0, 0, 0, 0, 0, 2, 2, 2, 2],
    "graph_label": 0,
    "graph_split_tag": 0,
}
# a corpus entry: its graphs carry labels, so the registry's split is used
BASE_REGISTRY = {"d": {"path": "corpus", "format": "corpus", "graph_split_seed": 0,
                       "graph_split_fractions": [0.5, 0.25, 0.25]}}
BASE_CONFIG = {
    "model.d": "2", "model.encoder_layers": "1", "model.transformer_layers": "1",
    "model.n_heads": "1", "model.ffn_hidden": "4",
    "train.epochs": "1", "train.episodes_per_level": "2", "train.batch_episodes": "1",
    "train.n_way": "2", "train.query_size": "4", "train.shot_start": "1",
    "train.shot_end": "1", "train.levels": "node,link",
}

NUMBERS = (st.integers(-3, 40) | st.floats(-3, 3)
           | st.sampled_from([float("nan"), float("inf"), 1e30, 0.5, 2.0]))
JSON_VALUES = st.recursive(
    NUMBERS | NUMBERS | st.none() | st.booleans() | st.text("a0\x00", max_size=2),
    lambda inner: st.lists(inner, max_size=3), max_leaves=6)


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _floats(lo, hi):
    return st.floats(lo, hi).map(repr)


# small ranges, so no example trains more than 2 epochs of 4 episodes
CONFIG_VALUES = {
    "model.d": _ints(-1, 4), "model.encoder_layers": _ints(-1, 2),
    "model.transformer_layers": _ints(-1, 1), "model.n_heads": _ints(-1, 4),
    "model.ffn_hidden": _ints(-1, 4), "model.intermediate_dim": _ints(-1, 4),
    "model.seed": _ints(-2, 2), "model.dropout": _floats(-0.5, 1.5),
    "model.dtype": st.sampled_from(["float32", "float64", "float16"]),
    "model.align_mode": st.sampled_from(["pad", "learnable-projection", "x"]),
    "model.encoder_variant": st.sampled_from(["linear", "nonlinear", "x"]),
    "model.unshared_attention": st.sampled_from(["true", "false", "x"]),
    "model.full_token_prediction": st.sampled_from(["true", "false", "x"]),
    "train.lr": _floats(-0.01, 0.01) | st.sampled_from(["nan", "inf", "-5"]),
    "train.weight_decay": _floats(-0.01, 0.01) | st.sampled_from(["nan", "inf"]),
    "train.epochs": _ints(-1, 2), "train.episodes_per_level": _ints(-1, 4),
    "train.batch_episodes": _ints(-1, 3), "train.n_way": _ints(-1, 4),
    "train.query_size": _ints(-1, 6), "train.shot_start": _ints(-1, 4),
    "train.shot_end": _ints(-1, 4), "train.seed": _ints(-2, 2),
    "train.feat_drop": _floats(-0.5, 1.5), "train.edge_drop": _floats(-0.5, 1.5),
    "train.levels": st.sampled_from(["node", "link", "graph", "node,link",
                                     "node,graph", "", "x"]),
    "train.preflight": st.sampled_from(["true", "false", "x"]),
}
# one value in four is junk for its key's type
CONFIG_EDITS = st.lists(st.sampled_from(sorted(CONFIG_VALUES)).flatmap(
    lambda key: st.tuples(st.just(key), st.one_of(
        CONFIG_VALUES[key], CONFIG_VALUES[key], CONFIG_VALUES[key],
        st.sampled_from(["", "x", "1.5"])))),
    min_size=1, max_size=2)


@st.composite
def _mutated(draw, value, top=True):
    """value with one entry, at any depth, deleted or replaced by a drawn
    JSON value; below the top, the whole value may be replaced instead, and
    a number may be nudged by -2..2."""
    if isinstance(value, (dict, list)) and value and (top or draw(st.integers(0, 3))):
        key = draw(st.sampled_from(sorted(value) if isinstance(value, dict)
                                   else range(len(value))))
        out = copy.copy(value)
        if draw(st.integers(0, 7)):
            out[key] = draw(_mutated(value[key], top=False))
        else:
            del out[key]
        return out
    if type(value) in (int, float) and draw(st.booleans()):
        return value + draw(st.integers(-2, 2))
    return draw(JSON_VALUES)


@st.composite
def _text(draw, payload) -> bytes:
    """payload as JSON text with one value mutated or, one time in four,
    with its bytes corrupted."""
    if draw(st.integers(0, 3)):
        return json.dumps(draw(_mutated(payload))).encode()
    return _corrupt(draw(st.data()), json.dumps(payload).encode())


def _json(payload, **changes) -> bytes:
    return json.dumps({**payload, **changes}).encode()


@pytest.fixture(scope="module")
def text_root(files):
    """Registries for a graph file (in two copies: one for the graph fuzz
    to mutate, one for the config fuzz to train on) and a four-graph corpus."""
    root = files / "text"
    for kind in ("graph", "config"):
        (root / kind).mkdir(parents=True)
        (root / kind / "registry.json").write_text(json.dumps({"d": {"path": "g.json"}}))
        (root / kind / "g.json").write_text(json.dumps(BASE_GRAPH))
    (root / "registry" / "corpus").mkdir(parents=True)
    for i in range(4):
        (root / "registry" / "corpus" / f"g{i}.json").write_text(
            json.dumps({**BASE_GRAPH, "graph_label": i % 2}))
    (root / "registry" / "registry.json").write_text(json.dumps(BASE_REGISTRY))
    return root


def _text_command(name: str, root, registry, config=BASE_CONFIG) -> list[str]:
    out = ["--out", str(root / "out" / name)]
    if name == "eval":
        return ["eval", str(root.parent / "clean.ckpt"), "d", "--registry", str(registry),
                "--level", "node", "--n", "2", "--k", "1", "--runs", "1",
                "--episodes", "1", "--queries", "4"] + out
    if name == "tokenize":
        return ["tokenize", "d", "--registry", str(registry), "--level", "node",
                "--n", "2", "--k", "1", "--queries", "4",
                "--checkpoint", str(root.parent / "clean.ckpt")] + out
    cfg = root / f"{registry.parent.name}.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in {
        "schema": "1", "data.registry": str(registry), "data.dataset": "d",
        **config}.items()))
    return ["pretrain", str(cfg)] + out


def _assert_clean_exit(argv) -> None:
    code, err = _run(argv)
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    assert code == 0 or (err.startswith("error: ") and err.count("\n") == 1), err


TEXT_COMMANDS = ["eval", "tokenize", "pretrain"]
FUZZ_TEXT = settings(FUZZ, max_examples=60)


@pytest.mark.parametrize("command", TEXT_COMMANDS)
@pytest.mark.parametrize("kind", ["graph", "registry", "config"])
def test_clean_text_inputs_control(text_root, command, kind):
    code, err = _run(_text_command(command, text_root, text_root / kind / "registry.json"))
    assert code == 0, err


@pytest.mark.parametrize("command", TEXT_COMMANDS)
@FUZZ_TEXT
@given(text=_text(BASE_GRAPH))
@example(text=_json(BASE_GRAPH, features=[[]] * 8))
@example(text=_json(BASE_GRAPH, labels=[0, -3, 0, -3, 0, -3, 0, -3]))
def test_mutated_graph_file_exits_cleanly(text_root, command, text):
    (text_root / "graph" / "g.json").write_bytes(text)
    _assert_clean_exit(_text_command(command, text_root,
                                     text_root / "graph" / "registry.json"))


@pytest.mark.parametrize("command", TEXT_COMMANDS)
@FUZZ_TEXT
@given(text=_text(BASE_REGISTRY))
@example(text=_json(BASE_REGISTRY, d={**BASE_REGISTRY["d"], "graph_split_seed": -1}))
@example(text=_json(BASE_REGISTRY, d={**BASE_REGISTRY["d"], "graph_split_seed": float("inf")}))
@example(text=_json(BASE_REGISTRY, d={**BASE_REGISTRY["d"],
                                      "graph_split_fractions": [float("nan"), 0.5, 0.5]}))
@example(text=_json(BASE_REGISTRY, d={**BASE_REGISTRY["d"],
                                      "graph_split_fractions": [1.5, -0.25, -0.25]}))
def test_mutated_registry_exits_cleanly(text_root, command, text):
    (text_root / "registry" / "registry.json").write_bytes(text)
    _assert_clean_exit(_text_command(command, text_root,
                                     text_root / "registry" / "registry.json"))


@FUZZ_TEXT
@given(edits=CONFIG_EDITS)
@example(edits=[("model.dropout", "0.75")])
@example(edits=[("model.seed", "-1")])
@example(edits=[("train.seed", "-1")])
@example(edits=[("model.ffn_hidden", "-1")])
@example(edits=[("train.n_way", "1")])
@example(edits=[("train.query_size", "0")])
@example(edits=[("train.shot_end", "0"), ("train.epochs", "5")])
@example(edits=[("train.n_way", "10")])
@example(edits=[("train.levels", "graph")])
@example(edits=[("train.shot_start", "50")])
@example(edits=[("train.lr", "nan")])
@example(edits=[("train.lr", "inf")])
@example(edits=[("train.weight_decay", "nan")])
def test_mutated_config_exits_cleanly(text_root, edits):
    _assert_clean_exit(_text_command("pretrain", text_root,
                                     text_root / "config" / "registry.json",
                                     config={**BASE_CONFIG, **dict(edits)}))


# node 3's features [0.1, 1.0] -> [1.1, 1.0], a graph the graph fuzz drew: a
# fresh d=2 model's query class-space rows are rounding noise on it, where
# the loss is not differentiable, and a preflight on the unjittered
# parameters failed it with exit 4 in both dtypes
DEGENERATE_GRAPH = {**BASE_GRAPH, "features": [
    [1.0, 0.0], [0.0, 1.0], [1.0, 0.2], [1.1, 1.0], [0.9, 0.0], [0.0, 0.8],
    [1.0, 0.1], [0.2, 1.0]]}


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_preflight_passes_a_degenerate_tiny_model(text_root, dtype):
    root = text_root / f"degenerate-{dtype}"
    root.mkdir()
    (root / "registry.json").write_text(json.dumps({"d": {"path": "g.json"}}))
    (root / "g.json").write_text(json.dumps(DEGENERATE_GRAPH))
    code, err = _run(_text_command("pretrain", text_root, root / "registry.json",
                                   config={**BASE_CONFIG, "model.dtype": dtype}))
    assert code == 0, err
