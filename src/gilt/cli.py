"""Operator surface: corpus prep, pre-training, evaluation, and token export.

Every command reads an optional flat key=value config file, applies flag
overrides on top, runs, and leaves a ``manifest.json`` in its output
directory with enough resolved state to replay the run.  Heavy imports are
deferred so a ``GILT_THREADS`` cap set in the environment lands before the
numerics stack starts threads.

Commands raise; ``main()`` alone maps an exception to an exit code and a
message prefix, first match wins:

- ``ConfigError`` -> 2: a bad flag or config value, or an unusable ``--out``;
- ``ProtocolError`` -> 2, ``protocol error:``: an N-way K-shot episode the
  data cannot serve, refused the same way by every command;
- ``LeakageError`` -> 3, ``leakage guard tripped:``;
- ``DataError`` -> 3: a missing, malformed or corrupt input file;
- ``TrainingDiverged`` -> 4;
- ``FloatingPointError`` -> 4, ``numerical failure:``.

Anything else is a bug and escapes with its traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import get_type_hints

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

CONFIG_SCHEMA = "1"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class ConfigError(Exception):
    """Bad config file, bad flag value, or an unusable output directory."""


def _apply_thread_cap() -> None:
    # must run before numpy is imported anywhere in this process
    cap = os.environ.get("GILT_THREADS")
    if cap is None:
        return
    if not cap.isdigit() or int(cap) < 1:
        raise ConfigError(f"GILT_THREADS must be a positive integer, got {cap!r}")
    for var in _THREAD_VARS:
        os.environ[var] = cap


# ---------------------------------------------------------------------------
# flat config files
# ---------------------------------------------------------------------------

def parse_config_text(text: str) -> dict[str, str]:
    """key=value lines; blank lines and # comments ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno} is not key=value: {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"config line {lineno} has an empty key")
        if key in out:
            raise ConfigError(f"duplicate config key {key!r} (line {lineno})")
        out[key] = value
    return out


def load_config(path) -> dict[str, str]:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"no config file at {path}")
    flat = parse_config_text(path.read_text())
    if flat.get("schema") != CONFIG_SCHEMA:
        raise ConfigError(
            f"config {path} must declare schema={CONFIG_SCHEMA} "
            f"(got {flat.get('schema')!r})")
    return flat


def apply_overrides(flat: dict[str, str], pairs) -> dict[str, str]:
    out = dict(flat)
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _coerce(value: str, typ, key: str):
    try:
        if typ is bool:
            low = value.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {value!r}")
        if typ is int:
            return int(value)
        if typ is float:
            return float(value)
        if typ is tuple:
            return tuple(v.strip() for v in value.split(",") if v.strip())
        return value
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc


def build_dataclass(cls, base, flat: dict[str, str], prefix: str):
    """Overlay prefixed flat keys onto a dataclass instance's fields."""
    hints = get_type_hints(cls)
    fields = dataclasses.asdict(base)
    for key, value in flat.items():
        if not key.startswith(prefix):
            continue
        name = key[len(prefix):]
        if name not in fields:
            raise ConfigError(f"unknown config key {key!r}")
        fields[name] = _coerce(value, hints[name], key)
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def _version_stamp() -> dict:
    try:
        from importlib.metadata import version
        pkg = version("gilt")
    except Exception:
        pkg = "unknown"
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            # the checkout gilt runs from, not the caller's working directory
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=5,
        ).stdout.strip() or "unknown"
    except Exception:
        git = "unknown"
    import numpy
    import scipy
    return {"package": pkg, "git": git, "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def write_manifest(out_dir: Path, command: str, resolved: dict,
                   checkpoints=(), started: float = 0.0) -> Path:
    payload = {
        "command": command,
        "argv": sys.argv[1:],
        "config": resolved,
        "checkpoints": [
            {"file": str(p), "sha256": _file_digest(Path(p))}
            for p in checkpoints if p is not None and Path(p).exists()
        ],
        "version": _version_stamp(),
        # thread caps as this process saw them (None where unset)
        "threads": {var: os.environ.get(var) for var in ("GILT_THREADS",) + _THREAD_VARS},
        "wall_clock_s": round(time.time() - started, 3) if started else 0.0,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _check_counts(*flags) -> None:
    """A usage error for the first (flag, value, least) whose value is below least."""
    for flag, value, least in flags:
        if value < least:
            raise ConfigError(f"{flag} must be >= {least}, got {value}")


def _check_reals(*flags) -> None:
    """A usage error for the first (flag, value, low, high) whose value is not
    a finite number in [low, high]."""
    for flag, value, low, high in flags:
        if not (math.isfinite(value) and low <= value <= high):
            raise ConfigError(f"{flag} must be a finite number in [{low}, {high}], "
                              f"got {value}")


def _out_dir(path) -> Path:
    """The --out directory, created if missing; one that cannot be is a
    usage error."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def cmd_synth(args) -> int:
    from .graphs import SyntheticSpec, assign_split, make_synthetic, write_graph

    _check_counts(("--graphs", args.graphs, 1), ("--classes", args.classes, 1),
                  ("--per-class", args.per_class, 1), ("--feature-dim", args.feature_dim, 1),
                  ("--graph-classes", args.graph_classes, 0), ("--seed", args.seed, 0))
    _check_reals(("--intra", args.intra, 0, 1), ("--inter", args.inter, 0, 1),
                 ("--separation", args.separation, -math.inf, math.inf),
                 ("--noise-sd", args.noise_sd, 0, math.inf))
    started = time.time()
    out = _out_dir(args.out)
    registry: dict[str, dict] = {}
    for i in range(args.graphs):
        spec = SyntheticSpec(
            n_classes=args.classes, nodes_per_class=args.per_class,
            intra_p=args.intra, inter_p=args.inter,
            feature_dim=args.feature_dim,
            class_mean_separation=args.separation,
            noise_sd=args.noise_sd, seed=args.seed + i)
        g = make_synthetic(spec, name=f"g{i}")
        g = assign_split(g, (0.6, 0.2, 0.2), "node", seed=args.seed + 1000 + i)
        g = assign_split(g, (0.6, 0.2, 0.2), "link", seed=args.seed + 2000 + i)
        if args.graph_classes:
            g = dataclasses.replace(g, graph_label=i % args.graph_classes)
        write_graph(g, out / f"g{i}.json")
        registry[f"g{i}"] = {"path": f"g{i}.json", "format": "json"}
    registry[args.name] = {
        "path": ".", "format": "corpus",
        "graph_split_seed": args.seed, "graph_split_fractions": [0.6, 0.2, 0.2],
    }
    (out / "registry.json").write_text(json.dumps(registry, indent=2))
    resolved = {k: str(v) for k, v in vars(args).items() if k != "func"}
    write_manifest(out, "synth", resolved, started=started)
    print(f"wrote {args.graphs} graphs and registry.json under {out}")
    return EXIT_OK


def _pretrain_configs(args):
    from .train import TrainConfig, desk_preset, reference_preset
    from .model import ModelConfig

    flat = load_config(args.config)
    if args.preset == "desk":
        model, tr = desk_preset()
    elif args.preset == "reference":
        model, tr = reference_preset()
    else:
        model, tr = ModelConfig(), TrainConfig()
    flat = apply_overrides(flat, args.set)
    for key in flat:
        if key != "schema" and not key.startswith(("model.", "train.", "data.")):
            raise ConfigError(f"unrecognized config key {key!r}")
    if args.seed is not None:
        flat["train.seed"] = str(args.seed)
    if args.epochs is not None:
        flat["train.epochs"] = str(args.epochs)
    model = build_dataclass(ModelConfig, model, flat, "model.")
    tr = build_dataclass(TrainConfig, tr, flat, "train.")
    return flat, model, tr


def cmd_pretrain(args) -> int:
    started = time.time()
    flat, model_cfg, train_cfg = _pretrain_configs(args)
    for field in ("data.registry", "data.dataset"):
        if field not in flat:
            raise ConfigError(f"config is missing required field {field}")

    from .graphs import load_corpus
    from .train import train

    corpus = load_corpus(flat["data.dataset"],
                         Path(args.config).parent / flat["data.registry"])
    out = _out_dir(args.out)
    result = train(corpus, model_cfg, train_cfg, out_dir=out,
                   resume_from=args.resume)

    write_manifest(out, "pretrain", dict(flat),
                   checkpoints=[result.checkpoint_path, out / "last.ckpt"],
                   started=started)
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"telemetry:  {result.telemetry_path}")
    return EXIT_OK


ABLATIONS = ("no-transformer", "no-encoder", "encoder-2")


def _ablated(model_cfg, ablations):
    for name in ablations or ():
        if name == "no-transformer":
            model_cfg = dataclasses.replace(model_cfg, transformer_layers=0)
        elif name == "no-encoder":
            model_cfg = dataclasses.replace(model_cfg, encoder_layers=0)
        elif name == "encoder-2":
            if model_cfg.encoder_layers < 2:
                raise ConfigError(
                    "encoder-2 ablation needs a checkpoint trained with at "
                    f"least 2 encoder layers, found {model_cfg.encoder_layers}")
            model_cfg = dataclasses.replace(model_cfg, encoder_layers=2)
        else:
            raise ConfigError(f"unknown ablation {name!r}")
    return model_cfg


def _load_model(path):
    """Parameters and model config from a checkpoint."""
    from .train import config_from_sidecar, load_checkpoint

    arrays, _, meta = load_checkpoint(path)
    return arrays, config_from_sidecar(meta)[0]


def cmd_eval(args) -> int:
    started = time.time()
    from .graphs import load_corpus
    from .evaluate import sweep_shots, write_reports

    try:
        ks = tuple(int(v) for v in args.k.split(","))
    except ValueError as exc:
        raise ConfigError(f"--k expects a comma list of integers: {exc}") from exc
    # zero runs or episodes would report NaN means
    _check_counts(("--runs", args.runs, 1), ("--episodes", args.episodes, 1),
                  ("--hits-k", args.hits_k, 1))
    arrays, model_cfg = _load_model(args.checkpoint)
    model_cfg = _ablated(model_cfg, args.ablate)

    corpus = load_corpus(args.dataset, args.registry or None)
    out = _out_dir(args.out)
    reports = sweep_shots(corpus, arrays, model_cfg, args.level, args.n, ks=ks,
                          episodes_per_run=args.episodes,
                          seeds=tuple(range(args.runs)), query_size=args.queries,
                          hits_k=args.hits_k)
    path = write_reports(reports, out / "report.json")
    for r in reports:
        line = f"k={r.k_shot} accuracy {r.mean_accuracy:.4f} +/- {r.sd_accuracy:.4f}"
        if r.level == "link":
            line += (f" auc {r.mean_auc:.4f} +/- {r.sd_auc:.4f}"
                     f" hits@{r.hits_k} {r.mean_hits:.4f} +/- {r.sd_hits:.4f}")
        print(line)
    print(f"report: {path}")

    resolved = {k: str(v) for k, v in vars(args).items() if k != "func"}
    write_manifest(out, "eval", resolved, checkpoints=[Path(args.checkpoint)],
                   started=started)
    return EXIT_OK


def cmd_tokenize(args) -> int:
    started = time.time()
    _check_counts(("--seed", args.seed, 0))
    from .graphs import load_corpus
    from .episodes import EpisodeSampler
    from .model import GraphBank, ModelConfig, batch_tokens, init_params, params_to_tensors
    from .tokens import TokenSet, write_tokens

    corpus = load_corpus(args.dataset, args.registry or None)
    if args.checkpoint:
        arrays, model_cfg = _load_model(args.checkpoint)
    else:
        model_cfg = ModelConfig(seed=args.seed)
        arrays = init_params(model_cfg)

    out = _out_dir(args.out)
    episode = EpisodeSampler(corpus, args.level, args.n, args.k,
                             query_size=args.queries, policy=args.policy,
                             seed=args.seed).sample()

    params = params_to_tensors(arrays, requires_grad=False)
    bank = GraphBank(corpus, model_cfg)
    t_sup, t_qry = batch_tokens(bank, [episode], params)
    ts = TokenSet(t_sup.values[0], t_qry.values[0], episode.support_labels,
                  episode.query_labels, episode.class_ids,
                  episode.n_way, episode.k_shot, model_cfg.d)
    path = write_tokens(ts, out / "tokens.bin")

    resolved = {k: str(v) for k, v in vars(args).items() if k != "func"}
    write_manifest(out, "tokenize", resolved, started=started)
    print(f"tokens: {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gilt",
        description="Graph in-context learning: prep, pre-train, evaluate, export.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic SBM corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--graphs", type=int, default=5)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--per-class", type=int, default=40)
    p.add_argument("--feature-dim", type=int, default=32)
    p.add_argument("--intra", type=float, default=0.3)
    p.add_argument("--inter", type=float, default=0.05)
    p.add_argument("--separation", type=float, default=2.5)
    p.add_argument("--noise-sd", type=float, default=0.5)
    p.add_argument("--graph-classes", type=int, default=0,
                   help="assign cyclic graph labels for graph-level tasks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", default="synth", help="registry name for the corpus")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pretrain", help="episodic multi-task pre-training")
    p.add_argument("config", help="flat key=value config file")
    p.add_argument("--preset", choices=("desk", "reference"),
                   help="start from a named config before file/flag overrides")
    p.add_argument("--out", required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key (repeatable)")
    p.add_argument("--seed", type=int, help="shorthand for --set train.seed=...")
    p.add_argument("--epochs", type=int, help="shorthand for --set train.epochs=...")
    p.add_argument("--resume", help="checkpoint to resume from")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("eval", help="frozen-model episodic evaluation")
    p.add_argument("checkpoint")
    p.add_argument("dataset", help="registry name (with --registry) or path")
    p.add_argument("--registry")
    p.add_argument("--level", required=True, choices=("node", "link", "graph"))
    p.add_argument("--n", type=int, default=4, help="classes per episode")
    p.add_argument("--k", default="5",
                   help="support shots per class; a comma list gives a report per count")
    p.add_argument("--runs", type=int, default=5, help="independently seeded runs")
    p.add_argument("--episodes", type=int, default=8, help="episodes per run")
    p.add_argument("--queries", type=int, default=2048, help="query-set cap")
    p.add_argument("--hits-k", type=int, default=10)
    p.add_argument("--ablate", action="append", choices=ABLATIONS,
                   help="evaluation-time architecture ablation (repeatable)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("tokenize", help="export one episode's token set")
    p.add_argument("dataset", help="registry name (with --registry) or path")
    p.add_argument("--registry")
    p.add_argument("--level", required=True, choices=("node", "link", "graph"))
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--queries", type=int, default=16)
    p.add_argument("--policy", choices=("eval", "pretrain"), default="eval")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoint", help="encode with trained weights")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tokenize)

    return parser


def main(argv=None) -> int:
    try:
        _apply_thread_cap()
        args = build_parser().parse_args(argv)
        return args.func(args)
    except Exception as exc:
        # imported only now, after the thread cap: each module loads numpy
        from .episodes import ProtocolError
        from .evaluate import LeakageError
        from .graphs import DataError
        from .train import TrainingDiverged

        table = ((ConfigError, EXIT_CONFIG, ""),
                 (ProtocolError, EXIT_CONFIG, "protocol error: "),
                 (LeakageError, EXIT_DATA, "leakage guard tripped: "),
                 (DataError, EXIT_DATA, ""),
                 (TrainingDiverged, EXIT_NUMERIC, ""),
                 (FloatingPointError, EXIT_NUMERIC, "numerical failure: "))
        for cls, code, prefix in table:
            if isinstance(exc, cls):
                print(f"error: {prefix}{exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
