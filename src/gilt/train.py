"""Episodic multi-task pre-training.

One optimizer step works on a small batch of episodes per task level. Each
level's batch runs as one forward (`model.batch_probs_and_loss`) on a
leading batch axis, whose loss is the mean of the episodes' losses; the
level means are combined with fixed weights (link episodes weigh heaviest),
and a single backward pass feeds AdamW with decoupled weight decay and
global-norm gradient clipping.
The support budget shrinks linearly over training, so late epochs rehearse
the small-shot regime the model will face at evaluation time.

Determinism contract: episode sampling is reseeded per (run seed, epoch,
level), so a run is a pure function of its configs, and resuming from a
checkpoint replays the exact remaining epochs. A checkpoint is one file
(see arrayfile): the parameters and AdamW moments, with the epoch, both
configs and the optimizer step in its header, so a resume reads nothing
else and a corrupted checkpoint is refused. Telemetry goes to a CSV with
one row per epoch; a non-finite loss aborts the run immediately, leaving
the last epoch checkpoint on disk.
"""
from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .arrayfile import read_arrays, write_arrays
from .episodes import SHOT_END, SHOT_START, EpisodeSampler, shots_at
from .graphs import Corpus, DataError
from .model import (
    GraphBank,
    ModelConfig,
    batch_probs_and_loss,
    episode_probs_and_loss,
    init_params,
    params_to_tensors,
)

LOSS_WEIGHTS = {"node": 0.53, "link": 2.74, "graph": 0.42}
LEVELS = ("node", "link", "graph")
TELEMETRY_COLUMNS = ("epoch", "L_node", "L_link", "L_graph", "L_total", "lr", "shots")
# AdamW moment decays and denominator floor, and the global gradient-norm cap
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
CLIP_NORM = 1.0
# standard deviation of the seeded jitter on the preflight's parameter copy,
# and its central-difference step: a step of 1e-5 can straddle a kink of the
# loss (a ReLU, a norm floor) and misread a right gradient
PREFLIGHT_JITTER = 1e-2
PREFLIGHT_STEP = 1e-6


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
    seed: int = 0
    preflight: bool = True
    divergence_limit: float = 1e6

    def __post_init__(self):
        unknown = set(self.levels) - set(LEVELS)
        if unknown:
            raise ValueError(f"unknown task levels {sorted(unknown)}")
        if not self.levels:
            raise ValueError("at least one task level required")
        for name, least in (("epochs", 1), ("batch_episodes", 1), ("n_way", 2),
                            ("query_size", 1), ("shot_start", 1), ("shot_end", 1),
                            ("seed", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if self.batch_episodes > self.episodes_per_level:
            raise ValueError("batch_episodes cannot exceed episodes_per_level")
        # written so that NaN, which fails every comparison, fails them too
        for name, top in (("feat_drop", 1.0), ("edge_drop", 1.0), ("lr", np.inf),
                          ("weight_decay", np.inf)):
            if not 0.0 <= getattr(self, name) < top:
                raise ValueError(f"{name}={getattr(self, name)} outside [0, {top:g})")
        if not self.divergence_limit > 0.0:
            raise ValueError(f"divergence_limit must be > 0, got {self.divergence_limit}")


def desk_preset() -> tuple[ModelConfig, TrainConfig]:
    """Small CPU-friendly pair for experiments and the test suite."""
    model = ModelConfig(d=32, encoder_layers=4, transformer_layers=2, n_heads=4,
                        ffn_hidden=128, dropout=0.1, dtype="float32")
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
                        episodes_per_level=512, batch_episodes=8)
    return model, train


def lr_at(cfg: TrainConfig, epoch: int) -> float:
    """Linear decay from cfg.lr towards 0 over cfg.epochs, with no warmup."""
    return cfg.lr * (1.0 - epoch / max(cfg.epochs, 1))


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
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        # decoupled weight decay: applied to the parameter, not the gradient
        p.values -= lr * (update + cfg.weight_decay * p.values)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

CKPT_MAGIC = b"GCKP"


def save_checkpoint(path, arrays: dict[str, np.ndarray], opt: AdamWState,
                    model_cfg: ModelConfig, train_cfg: TrainConfig,
                    epoch: int) -> Path:
    """One atomically written file: the parameters and AdamW moments, with
    the epoch, both configs and the optimizer step in its header."""
    named: dict[str, np.ndarray] = dict(arrays)
    named.update((f"opt_m:{k}", a) for k, a in opt.m.items())
    named.update((f"opt_v:{k}", a) for k, a in opt.v.items())
    meta = {"epoch": int(epoch), "opt_step": int(opt.step),
            "model": asdict(model_cfg), "train": asdict(train_cfg)}
    return write_arrays(path, CKPT_MAGIC, meta, {k: named[k] for k in sorted(named)})


def load_checkpoint(path):
    """Returns (param arrays, AdamWState, meta); meta holds the epoch, both
    configs (see config_from_sidecar) and the optimizer step.

    A file that is missing, unreadable, malformed, truncated, corrupted
    (SHA-256 mismatch) or of another format version, a header without a
    valid epoch, step or configs, or arrays whose names, shapes or dtypes
    are not those of the model the header describes, raises DataError
    ("cannot load checkpoint ...").
    """
    try:
        meta, named = read_arrays(path, CKPT_MAGIC)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot load checkpoint {path}: {exc}") from exc
    try:
        expected = init_params(config_from_sidecar(meta)[0])
        step, meta["epoch"] = int(meta["opt_step"]), int(meta["epoch"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"cannot load checkpoint {path}: invalid header: {exc}") from exc
    params = {k: a for k, a in named.items() if not k.startswith(("opt_m:", "opt_v:"))}
    m = {k[6:]: a for k, a in named.items() if k.startswith("opt_m:")}
    v = {k[6:]: a for k, a in named.items() if k.startswith("opt_v:")}
    for got in (params, m, v):
        _check_arrays(path, got, expected, "its header model")
    return params, AdamWState(m=m, v=v, step=step), meta


def _check_arrays(path, params: dict[str, np.ndarray],
                  expected: dict[str, np.ndarray], what: str) -> None:
    """Raise DataError unless params has exactly the names, shapes and
    dtypes of expected, a model's init_params."""
    if set(params) != set(expected):
        odd = sorted(set(params) ^ set(expected))
        raise DataError(f"cannot load checkpoint {path}: its arrays do not "
                        f"match {what}: {odd}")
    for name, want in expected.items():
        got = params[name]
        if (got.shape, got.dtype) != (want.shape, want.dtype):
            raise DataError(f"cannot load checkpoint {path}: array {name} has "
                            f"shape {got.shape} and dtype {got.dtype}, {what} "
                            f"needs {want.shape} and {want.dtype}")


def config_from_sidecar(meta: dict) -> tuple[ModelConfig, TrainConfig]:
    """Both configs from the header meta that load_checkpoint returns (the
    name dates from when they lived in a sidecar file)."""
    train = dict(meta["train"])
    train["levels"] = tuple(train["levels"])
    return ModelConfig(**meta["model"]), TrainConfig(**train)


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


def _preflight(bank, episode, params) -> None:
    """Gradient-check the batch forward that training runs, on a batch of
    the first episode alone, on float64 copies of the parameters and the
    bank, since finite differences need 64-bit. The bank's aligned features
    do not depend on the dtype, so its copy shares them.

    The parameter copy carries seeded N(0, PREFLIGHT_JITTER^2) jitter. A fresh model
    can sit where the loss is not differentiable (its query class-space rows
    are rounding noise under normalize_rows' floor, so any step flips them
    to unit rows); the jitter moves the check off that point, and a wrong
    VJP is wrong at every point, so it still fails. Working on a copy also
    keeps the check's gradients out of the run's first optimizer step."""
    rng = np.random.default_rng(0)
    params64 = params_to_tensors({
        k: p.values.astype(np.float64) + rng.normal(0.0, PREFLIGHT_JITTER, p.shape)
        for k, p in params.items()})
    bank64 = GraphBank(bank.corpus, replace(bank.cfg, dtype="float64"), bank._prepared)

    def loss():
        _, ell = episode_probs_and_loss(bank64, episode, params64, train=True)
        return ell

    report = ad.grad_check(loss, params64, h=PREFLIGHT_STEP, tol=1e-3,
                           max_coords_per_param=2, rng=np.random.default_rng(0))
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
    exactly the run it would have been. A resume checkpoint that is missing,
    cannot be loaded, or holds arrays of another model than model_cfg raises
    DataError."""
    bank = GraphBank(corpus, model_cfg)
    start_epoch = 0
    arrays = init_params(model_cfg)
    if resume_from is not None:
        loaded, opt, meta = load_checkpoint(resume_from)
        _check_arrays(resume_from, loaded, arrays, "this run's model")
        arrays = loaded
        start_epoch = meta["epoch"] + 1
    else:
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
                episodes = [samplers[lv].sample(k_shot=shots)
                            for _ in range(train_cfg.batch_episodes)]
                if not checked:
                    _preflight(bank, episodes[0], params)
                    checked = True
                # one forward per level: the batch's mean loss, and each
                # episode's loss for telemetry
                _, mean_loss, per_episode = batch_probs_and_loss(
                    bank, episodes, params, train=True)
                epoch_losses[lv].extend(float(ell) for ell in per_episode)
                level_means.append(ad.mul(mean_loss, weights[lv]))
            total = _sum_tensors(level_means)
            value = float(total.values)
            if not np.isfinite(value) or value > train_cfg.divergence_limit:
                raise TrainingDiverged(f"epoch {epoch}: loss {value}")
            total.backward()
            clip_gradients(params, CLIP_NORM)
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
