"""Fuzzing the binary artifacts: a checkpoint or token file with 1-3 bytes
flipped, inserted or deleted must be refused, and every CLI command that
reads a checkpoint must exit 3 on it with a one-line error."""
import contextlib
import io

import pytest
from hypothesis import assume, given, settings
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
