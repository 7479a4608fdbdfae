"""Episodic multi-task pre-training.

One optimizer step works on a small batch of episodes per task level. Each
level's episode losses are averaged, the level means are combined with
fixed weights (link episodes weigh heaviest), and a single backward pass
feeds AdamW with decoupled weight decay and global-norm gradient clipping.
The support budget shrinks linearly over training, so late epochs rehearse
the small-shot regime the model will face at evaluation time.

Determinism contract: episode sampling is reseeded per (run seed, epoch,
level), so a run is a pure function of its configs, and resuming from a
checkpoint replays the exact remaining epochs. Telemetry goes to a CSV
with one row per epoch; a non-finite loss aborts the run immediately,
leaving the last epoch checkpoint on disk.
"""
from __future__ import annotations

import csv
import json
import os
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .episodes import SHOT_END, SHOT_START, EpisodeSampler, shots_at
from .graphs import Corpus, DataError
from .model import (
    GraphBank,
    ModelConfig,
    episode_probs_and_loss,
    init_params,
    params_to_tensors,
)

LOSS_WEIGHTS = {"node": 0.53, "link": 2.74, "graph": 0.42}
LEVELS = ("node", "link", "graph")
TELEMETRY_COLUMNS = ("epoch", "L_node", "L_link", "L_graph", "L_total", "lr", "shots")
SCHEDULES = ("linear-decay", "cosine", "constant")


class TrainingDiverged(RuntimeError):
    """Loss went non-finite; the run cannot continue."""


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    weight_decay: float = 4e-4
    epochs: int = 40
    episodes_per_level: int = 24
    batch_episodes: int = 4
    levels: tuple = LEVELS
    n_way: int = 4
    query_size: int = 64
    shot_start: int = SHOT_START
    shot_end: int = SHOT_END
    feat_drop: float = 0.1
    edge_drop: float = 0.1
    clip_norm: float = 1.0
    schedule: str = "linear-decay"
    warmup_epochs: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    preflight: bool = True
    divergence_limit: float = 1e6

    def __post_init__(self):
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}")
        unknown = set(self.levels) - set(LEVELS)
        if unknown:
            raise ValueError(f"unknown task levels {sorted(unknown)}")
        if not self.levels:
            raise ValueError("at least one task level required")
        if self.batch_episodes > self.episodes_per_level:
            raise ValueError("batch_episodes cannot exceed episodes_per_level")


def desk_preset() -> tuple[ModelConfig, TrainConfig]:
    """Small CPU-friendly pair for experiments and the test suite."""
    model = ModelConfig(d=32, encoder_layers=4, transformer_layers=2, n_heads=4,
                        ffn_hidden=128, dropout=0.1, dtype="float64")
    # shots start at 10, not 20: desk-scale graphs rarely hold 21 labelled
    # training nodes per class once split 60/20/20
    train = TrainConfig(lr=1e-3, epochs=40, episodes_per_level=24,
                        batch_episodes=4, shot_start=10, shot_end=5)
    return model, train


def reference_preset() -> tuple[ModelConfig, TrainConfig]:
    """Published full-scale settings; needs serious compute."""
    model = ModelConfig(d=512, encoder_layers=5, transformer_layers=5, n_heads=4,
                        ffn_hidden=2048, dropout=0.1, dtype="float32")
    train = TrainConfig(lr=2e-6, weight_decay=4e-4, epochs=50,
                        episodes_per_level=512, batch_episodes=8,
                        schedule="linear-decay")
    return model, train


def lr_at(cfg: TrainConfig, epoch: int) -> float:
    base = cfg.lr
    if cfg.warmup_epochs > 0 and epoch < cfg.warmup_epochs:
        return base * (epoch + 1) / cfg.warmup_epochs
    if cfg.schedule == "constant":
        return base
    e, total = epoch, max(cfg.epochs, 1)
    if cfg.schedule == "linear-decay":
        return base * (1.0 - e / total)
    return base * 0.5 * (1.0 + np.cos(np.pi * e / total))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

@dataclass
class AdamWState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def fresh(cls, arrays: dict[str, np.ndarray]) -> "AdamWState":
        return cls(
            m={k: np.zeros_like(a) for k, a in arrays.items()},
            v={k: np.zeros_like(a) for k, a in arrays.items()},
        )


def clip_gradients(params: dict[str, ad.Tensor], max_norm: float) -> float:
    """Scale all gradients so their global norm is at most max_norm."""
    total = ad.global_grad_norm(params.values())
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return total


def adamw_step(params: dict[str, ad.Tensor], state: AdamWState,
               lr: float, cfg: TrainConfig) -> None:
    state.step += 1
    t = state.step
    bc1 = 1.0 - cfg.beta1 ** t
    bc2 = 1.0 - cfg.beta2 ** t
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        m = state.m[name]
        v = state.v[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
        # decoupled weight decay: applied to the parameter, not the gradient
        p.values -= lr * (update + cfg.weight_decay * p.values)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

CKPT_MAGIC = b"GCKP"
CKPT_VERSION = 1
_DTYPE_CODES = {np.dtype(np.float32): b"4", np.dtype(np.float64): b"8"}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}


def save_checkpoint(path, arrays: dict[str, np.ndarray], opt: AdamWState,
                    model_cfg: ModelConfig, train_cfg: TrainConfig,
                    epoch: int) -> Path:
    """Binary array blob plus a JSON sidecar; the write is atomic."""
    path = Path(path)
    named: dict[str, np.ndarray] = dict(arrays)
    for k, a in opt.m.items():
        named[f"opt_m:{k}"] = a
    for k, a in opt.v.items():
        named[f"opt_v:{k}"] = a
    named["opt_step"] = np.array([float(opt.step)], dtype=np.float64)

    blob = bytearray()
    blob += CKPT_MAGIC
    blob += struct.pack("<HI", CKPT_VERSION, len(named))
    for name in sorted(named):
        arr = np.ascontiguousarray(named[name])
        code = _DTYPE_CODES.get(arr.dtype)
        if code is None:
            raise ValueError(f"checkpoint array {name} has unsupported dtype {arr.dtype}")
        raw_name = name.encode()
        blob += struct.pack("<H", len(raw_name)) + raw_name
        blob += code
        blob += struct.pack("<B", arr.ndim)
        blob += struct.pack(f"<{arr.ndim}I", *arr.shape)
        blob += arr.tobytes()

    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(bytes(blob))
    os.replace(tmp, path)

    sidecar = {
        "format_version": CKPT_VERSION,
        "epoch": int(epoch),
        "model": asdict(model_cfg),
        "train": asdict(train_cfg),
    }
    side_tmp = path.with_suffix(path.suffix + ".json.tmp")
    side_tmp.write_text(json.dumps(sidecar, indent=2, sort_keys=True))
    os.replace(side_tmp, path.with_suffix(path.suffix + ".json"))
    return path


def load_checkpoint(path):
    """Returns (param arrays, AdamWState, sidecar dict).

    A malformed or truncated file, or arrays that do not match the model the
    sidecar describes, raises ValueError.
    """
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] != CKPT_MAGIC:
        raise ValueError(f"{path} is not a checkpoint (bad magic)")

    def unpack(fmt: str, off: int) -> tuple:
        try:
            return struct.unpack_from(fmt, raw, off)
        except struct.error as exc:
            raise ValueError(f"checkpoint {path} is truncated at byte {len(raw)}") from exc

    version, count = unpack("<HI", 4)
    if version != CKPT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    off = 10
    named: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = unpack("<H", off)
        off += 2
        name = raw[off:off + nlen].decode()
        off += nlen
        dtype = _CODE_DTYPES.get(raw[off:off + 1])
        if dtype is None:
            raise ValueError(f"unknown dtype code in checkpoint for {name}")
        off += 1
        (ndim,) = unpack("<B", off)
        off += 1
        shape = unpack(f"<{ndim}I", off)
        off += 4 * ndim
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize if ndim else dtype.itemsize
        count_items = int(np.prod(shape, dtype=np.int64)) if ndim else 1
        # frombuffer raises ValueError itself when the data runs past the end
        arr = np.frombuffer(raw, dtype=dtype, count=count_items, offset=off).reshape(shape).copy()
        off += nbytes
        named[name] = arr
    if off != len(raw):
        raise ValueError(f"checkpoint {path} has {len(raw) - off} trailing bytes")

    params, m, v = {}, {}, {}
    step = 0
    for name, arr in named.items():
        if name == "opt_step":
            step = int(arr[0])
        elif name.startswith("opt_m:"):
            m[name[6:]] = arr
        elif name.startswith("opt_v:"):
            v[name[6:]] = arr
        else:
            params[name] = arr
    opt = AdamWState(m=m, v=v, step=step)

    sidecar_path = path.with_suffix(path.suffix + ".json")
    sidecar = json.loads(sidecar_path.read_text()) if sidecar_path.exists() else {}
    if sidecar:
        _check_against_sidecar(path, params, sidecar)
    return params, opt, sidecar


def _check_against_sidecar(path, params: dict[str, np.ndarray], sidecar: dict) -> None:
    try:
        expected = {k: v.shape for k, v in
                    init_params(config_from_sidecar(sidecar)[0]).items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint sidecar for {path} is invalid: {exc}") from exc
    if set(params) != set(expected):
        odd = sorted(set(params) ^ set(expected))
        raise ValueError(f"checkpoint {path} arrays do not match its sidecar model: {odd}")
    for name, shape in expected.items():
        if params[name].shape != shape:
            raise ValueError(f"checkpoint {path} array {name} has shape "
                             f"{params[name].shape}, its sidecar model needs {shape}")


def config_from_sidecar(sidecar: dict) -> tuple[ModelConfig, TrainConfig]:
    model = ModelConfig(**sidecar["model"])
    raw = dict(sidecar["train"])
    raw["levels"] = tuple(raw["levels"])
    return model, TrainConfig(**raw)


# ---------------------------------------------------------------------------
# telemetry
# ---------------------------------------------------------------------------

def write_telemetry(rows: list[dict], path) -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TELEMETRY_COLUMNS)
        for row in rows:
            writer.writerow([repr(row[c]) if isinstance(row[c], float) else row[c]
                             for c in TELEMETRY_COLUMNS])
    return path


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    params: dict[str, np.ndarray]
    telemetry: list[dict]
    checkpoint_path: Path | None
    telemetry_path: Path | None


def _epoch_sampler(corpus, level, train_cfg: TrainConfig, epoch: int) -> EpisodeSampler:
    n_way = 2 if level == "link" else train_cfg.n_way
    return EpisodeSampler(
        corpus, level, n_way=n_way, k_shot=1, query_size=train_cfg.query_size,
        policy="pretrain", seed=[train_cfg.seed, epoch, LEVELS.index(level)],
        feat_drop=train_cfg.feat_drop, edge_drop=train_cfg.edge_drop,
    )


def _preflight(bank, episode, params, model_cfg) -> None:
    if model_cfg.np_dtype() != np.float64:
        return  # finite differences need 64-bit; skip quietly

    def loss():
        _, ell = episode_probs_and_loss(bank, episode, params, model_cfg, train=True)
        return ell

    report = ad.grad_check(loss, params, tol=1e-3, max_coords_per_param=2,
                           rng=np.random.default_rng(0))
    if not report.passed:
        raise TrainingDiverged(
            f"preflight gradient check failed: max rel err "
            f"{report.max_rel_err:.3e} in {report.worst_param}"
        )


def train(corpus: Corpus, model_cfg: ModelConfig, train_cfg: TrainConfig,
          out_dir=None, resume_from=None, progress=None,
          stop_after: int | None = None) -> TrainResult:
    """Run (or resume) pre-training; stop_after ends the run early but keeps
    every schedule pinned to train_cfg.epochs, so a stopped run resumes into
    exactly the run it would have been. A resume checkpoint that is missing
    or cannot be loaded raises DataError."""
    bank = GraphBank(corpus, model_cfg)
    start_epoch = 0
    if resume_from is not None:
        try:
            arrays, opt, sidecar = load_checkpoint(resume_from)
        except (OSError, ValueError) as exc:
            raise DataError(f"cannot load checkpoint {resume_from}: {exc}") from exc
        start_epoch = int(sidecar.get("epoch", -1)) + 1
    else:
        arrays = init_params(model_cfg)
        opt = AdamWState.fresh(arrays)
    params = params_to_tensors(arrays)

    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    telemetry: list[dict] = []
    weights = LOSS_WEIGHTS
    checked = resume_from is not None or not train_cfg.preflight

    end_epoch = train_cfg.epochs
    if stop_after is not None:
        end_epoch = min(end_epoch, stop_after + 1)
    last_epoch = start_epoch - 1

    for epoch in range(start_epoch, end_epoch):
        shots = shots_at(epoch, train_cfg.epochs, train_cfg.shot_start,
                         train_cfg.shot_end)
        lr = lr_at(train_cfg, epoch)
        samplers = {lv: _epoch_sampler(corpus, lv, train_cfg, epoch)
                    for lv in train_cfg.levels}
        epoch_losses: dict[str, list] = {lv: [] for lv in train_cfg.levels}

        steps = train_cfg.episodes_per_level // train_cfg.batch_episodes
        for _ in range(steps):
            for p in params.values():
                p.zero_grad()
            level_means = []
            for lv in train_cfg.levels:
                batch_losses = []
                for _ in range(train_cfg.batch_episodes):
                    episode = samplers[lv].sample(k_shot=shots)
                    if not checked:
                        _preflight(bank, episode, params, model_cfg)
                        checked = True
                    _, ell = episode_probs_and_loss(bank, episode, params,
                                                    model_cfg, train=True)
                    batch_losses.append(ell)
                    epoch_losses[lv].append(float(ell.values))
                mean_loss = ad.scale(_sum_tensors(batch_losses),
                                     1.0 / len(batch_losses))
                level_means.append(ad.scale(mean_loss, weights[lv]))
            total = _sum_tensors(level_means)
            value = float(total.values)
            if not np.isfinite(value) or value > train_cfg.divergence_limit:
                raise TrainingDiverged(f"epoch {epoch}: loss {value}")
            total.backward()
            clip_gradients(params, train_cfg.clip_norm)
            adamw_step(params, opt, lr, train_cfg)

        row = {"epoch": epoch, "lr": float(lr), "shots": shots}
        for lv in LEVELS:
            key = f"L_{lv}"
            row[key] = (float(np.mean(epoch_losses[lv]))
                        if lv in train_cfg.levels else float("nan"))
        row["L_total"] = float(sum(
            weights[lv] * row[f"L_{lv}"] for lv in train_cfg.levels))
        telemetry.append(row)
        last_epoch = epoch
        if progress is not None:
            progress(row)

        if out_dir is not None:
            arrays_now = {k: p.values for k, p in params.items()}
            save_checkpoint(out_dir / "last.ckpt", arrays_now, opt,
                            model_cfg, train_cfg, epoch)

    final_arrays = {k: p.values.copy() for k, p in params.items()}
    ckpt_path = telem_path = None
    if out_dir is not None:
        ckpt_path = save_checkpoint(out_dir / "final.ckpt", final_arrays, opt,
                                    model_cfg, train_cfg, last_epoch)
        telem_path = write_telemetry(telemetry, out_dir / "telemetry.csv")
    return TrainResult(params=final_arrays, telemetry=telemetry,
                       checkpoint_path=ckpt_path, telemetry_path=telem_path)


def _sum_tensors(parts):
    total = parts[0]
    for p in parts[1:]:
        total = ad.add(total, p)
    return total
