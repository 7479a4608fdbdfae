"""The three workloads and one pass of the pipeline over them.

A round is what a user does with `gilt pretrain` then `gilt eval`, in one
process and one thread, as a closed loop with one caller:

1. `train.train` on the workload's corpus, writing a checkpoint
   and telemetry every epoch; epochs 1..N are timed through the `progress`
   callback, epoch 0 carries the lazy bank preparation and the preflight
   gradient check.
2. Evaluation set-up: `train.load_checkpoint` plus `GraphBank.prepared` on
   every graph of the same corpus, repeated and timed.
3. `evaluate.evaluate` in chunks of a few episodes, alternating node level
   (4-way) and link level (2-way), 5-shot, default query size, for
   `--seconds`; each chunk uses its own run seed, so later chunks are new
   episodes.

The quality figures (loss, accuracy, AUC) come from fixed work: the last
timed epoch and the first `MIN_CHUNKS` chunks per level. Chunks beyond
those only add throughput samples, so the quality figures are exact for a
seed whatever the machine's speed.
"""
from __future__ import annotations

import gc
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from gilt.evaluate import evaluate
from gilt.graphs import Corpus
from gilt.model import GraphBank
from gilt.train import config_from_sidecar, desk_preset, load_checkpoint, train

from inputs import Scale, graph_corpus, large_corpus, small_corpus

K_SHOT = 5
N_WAY = {"node": 4, "link": 2}
# node episodes are ~20x cheaper than link episodes, so their chunks are
# larger to keep each timed sample well above timer and scheduler noise
EPISODES_PER_CHUNK = {"node": 16, "link": 4}
MIN_CHUNKS = 8
EVAL_SETUPS = 3
# a traced run times per-layer costs per episode, so two timed epochs do
TRACE_EPOCHS = 2
# fixed margins over chance (4-way accuracy 0.25, link AUC 0.5)
NODE_ACC_FLOOR = 0.25 + 0.1
LINK_AUC_FLOOR = 0.5 + 0.1


@dataclass(frozen=True)
class Workload:
    levels: tuple
    timed_epochs: int
    corpus: Callable[[int, Scale], Corpus]


# why each workload exists: BENCHMARK.json and README.md
WORKLOADS = {
    # tiny graphs: the tape, transformer, tokens and head dominate
    "train-small": Workload(("node", "link"), 12, small_corpus),
    # graph episodes encode ~60 small graphs each: per-call overhead dominates
    "train-graph": Workload(("node", "link", "graph"), 3, graph_corpus),
    # 4000-node graphs: whole-graph encoding, edge sets, streaming PCA
    "large": Workload(("node", "link"), 3, large_corpus),
}


# A fixed kernel that shares no code with gilt: dict inserts keyed by tuples
# (like the samplers' edge sets) and small matmuls (like the transformer).
# Timing it next to every sample measures how fast the machine is running
# at that moment; see README.md, "Speed reference".
REFERENCE_NOMINAL_S = 0.006
_REFERENCE_MATRIX = np.random.default_rng(0).standard_normal((48, 48))


def reference_seconds() -> float:
    """Wall time of one pass of the reference kernel. The cyclic garbage
    collector is off while it runs, so its time does not grow with the
    number of objects gilt holds at that moment."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(20000):
            table[(i, i ^ 5)] = i
        total = 0.0
        for _ in range(200):
            total += float((_REFERENCE_MATRIX @ _REFERENCE_MATRIX).sum())
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


@dataclass
class Timed:
    """Wall seconds of each sample, with the reference time around it."""

    seconds: list = field(default_factory=list)
    reference: list = field(default_factory=list)

    def add(self, seconds: float, ref_before: float, ref_after: float) -> None:
        self.seconds.append(seconds)
        self.reference.append(0.5 * (ref_before + ref_after))

    def scaled(self) -> list:
        """Each sample's seconds at the nominal reference speed."""
        return [s * REFERENCE_NOMINAL_S / r for s, r in zip(self.seconds, self.reference)]


@dataclass
class RoundResult:
    epochs: Timed = field(default_factory=Timed)         # epochs 0..N
    episodes_per_epoch: int = 0
    telemetry: list = field(default_factory=list)
    eval_setups: Timed = field(default_factory=Timed)
    chunks: dict = field(default_factory=lambda: {"node": Timed(), "link": Timed()})
    chunk_runs: dict = field(default_factory=lambda: {"node": [], "link": []})
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    wall_s: float = 0.0

    def fail(self, what: str, unfinished: int) -> None:
        self.failed += unfinished
        self.errors.append(what)
        traceback.print_exc(file=sys.stderr)


def run_round(w: Workload, corpus: Corpus, workdir: Path, seed: int,
              scale: Scale, epochs: int, eval_seconds: float, eval_setups: int,
              tracer=None) -> RoundResult:
    """One pretrain -> load -> evaluate pass over `epochs` timed epochs;
    exceptions become failed ops. The reference kernel runs between
    samples, outside every timed interval."""
    def phase(name: str) -> None:
        if tracer is not None:
            tracer.phase = name

    res = RoundResult()
    start = time.perf_counter()
    model_cfg, train_cfg = desk_preset()
    train_cfg = replace(train_cfg, levels=w.levels, **dict(scale.train_overrides))
    steps_per_epoch = train_cfg.episodes_per_level // train_cfg.batch_episodes
    res.episodes_per_epoch = (len(train_cfg.levels) * steps_per_epoch
                              * train_cfg.batch_episodes)
    res.attempted += (epochs + 1) * steps_per_epoch

    refs = [reference_seconds()]
    resumed = [time.perf_counter()]

    def progress(row):
        ended = time.perf_counter()
        refs.append(reference_seconds())
        res.epochs.add(ended - resumed[-1], refs[-2], refs[-1])
        phase("train.steady" if row["epoch"] < epochs else "train.tail")
        resumed.append(time.perf_counter())

    phase("train.setup")
    try:
        result = train(corpus, model_cfg, train_cfg, out_dir=workdir,
                       progress=progress, stop_after=epochs)
    except Exception:
        res.fail("train raised",
                 (epochs + 1 - len(res.epochs.seconds)) * steps_per_epoch)
        res.wall_s = time.perf_counter() - start
        return res
    res.telemetry = result.telemetry

    phase("eval.setup")
    try:
        for _ in range(eval_setups):
            ref = reference_seconds()
            t = time.perf_counter()
            arrays, _, sidecar = load_checkpoint(result.checkpoint_path)
            cfg, _ = config_from_sidecar(sidecar)
            bank = GraphBank(corpus, cfg)
            for gi in range(len(corpus.graphs)):
                bank.prepared(gi)
            res.eval_setups.add(time.perf_counter() - t, ref, reference_seconds())
    except Exception:
        unfinished = MIN_CHUNKS * sum(EPISODES_PER_CHUNK.values())
        res.attempted += unfinished
        res.fail("evaluation set-up raised", unfinished)
        res.wall_s = time.perf_counter() - start
        return res
    if arrays.keys() != result.params.keys() or any(
            not np.array_equal(arrays[k], v) for k, v in result.params.items()):
        res.errors.append("checkpoint does not round-trip the trained parameters")

    # node and link chunks alternate, so both levels are sampled across the
    # whole eval phase rather than in two back-to-back slices of it
    began = time.perf_counter()
    chunk = 0
    ref = reference_seconds()
    while chunk < MIN_CHUNKS or time.perf_counter() - began < eval_seconds:
        seconds = {}
        for level in ("node", "link"):
            phase(f"eval.{level}")
            res.attempted += EPISODES_PER_CHUNK[level]
            t = time.perf_counter()
            try:
                report = evaluate(corpus, arrays, cfg, level, N_WAY[level],
                                  K_SHOT, episodes_per_run=EPISODES_PER_CHUNK[level],
                                  seeds=(seed * 1000 + chunk,), bank=bank)
            except Exception:
                res.fail(f"{level} evaluation raised", EPISODES_PER_CHUNK[level])
                phase("idle")
                res.wall_s = time.perf_counter() - start
                return res
            seconds[level] = time.perf_counter() - t
            res.chunk_runs[level].append(report.per_run[0])
        phase("idle")
        ref_after = reference_seconds()
        for level, s in seconds.items():
            res.chunks[level].add(s, ref, ref_after)
        ref = ref_after
        chunk += 1
    res.wall_s = time.perf_counter() - start
    return res


def quality(res: RoundResult) -> dict:
    """Loss of the last timed epoch, mean accuracy / AUC of the fixed chunks."""
    node = res.chunk_runs["node"][:MIN_CHUNKS]
    link = res.chunk_runs["link"][:MIN_CHUNKS]
    return {
        "train_loss": res.telemetry[-1]["L_total"] if res.telemetry else None,
        "eval_node_acc": statistics.fmean(r["accuracy"] for r in node) if node else None,
        "eval_link_auc": statistics.fmean(r["auc"] for r in link) if link else None,
    }


def check_outputs(w: Workload, res: RoundResult) -> list[str]:
    """Reasons the round's outputs are wrong; empty when they are right."""
    problems = list(res.errors)
    for row in res.telemetry:
        for lv in w.levels:
            if not np.isfinite(row[f"L_{lv}"]):
                problems.append(f"epoch {row['epoch']}: L_{lv} is {row[f'L_{lv}']}")
    for level in ("node", "link"):
        if len(res.chunk_runs[level]) < MIN_CHUNKS:
            problems.append(f"{level} evaluation finished too few chunks")
    q = quality(res)
    if q["eval_node_acc"] is not None and not q["eval_node_acc"] >= NODE_ACC_FLOOR:
        problems.append(f"node accuracy {q['eval_node_acc']:.3f} < {NODE_ACC_FLOOR}")
    if q["eval_link_auc"] is not None and not q["eval_link_auc"] >= LINK_AUC_FLOOR:
        problems.append(f"link AUC {q['eval_link_auc']:.3f} < {LINK_AUC_FLOOR}")
    return problems


def same_outputs(a: RoundResult, b: RoundResult) -> bool:
    """Bit-equal losses and eval results; repr keeps every digit and lets
    the NaN loss of an untrained level compare equal to itself."""
    return (repr(a.telemetry) == repr(b.telemetry)
            and repr(a.chunk_runs) == repr(b.chunk_runs))
