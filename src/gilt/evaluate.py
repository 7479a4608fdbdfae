"""Evaluation harness: frozen-model episodic protocol and metrics.

Every reported number follows the same protocol: supports come from the
train split, queries from the test split, the model runs without any
dropout, and nothing updates parameters (a content hash is checked before
and after to prove it). Split leakage is treated as a defect, not a
warning: any episode whose items sit on the wrong side of the split
aborts the evaluation.

An evaluation samples every run's episodes, at every support budget, and
checks each against the split before any forward. A run's episodes then
run in packs: consecutive episodes of one shape (support and query sizes),
in sampled order, batched into one `model.batch_forward` while the pack's
activation stays within `PACK_BYTES` (an episode over it runs alone).
Each episode's metrics read its own rows, in sampled order, so a run's
numbers are bit-identical to running its episodes one by one.

Metrics: accuracy for classification levels, plus ROC-AUC (rank-based,
ties counted half) and hits@k (positives strictly above the k-th best
negative) for link prediction. Results aggregate as mean and standard
deviation over independent run seeds.

`sweep_shots` evaluates one frozen model at each support budget, sharing
one graph bank, and returns a full `EvalReport` per budget; `evaluate` is
its single-budget case. `write_reports` stores the reports as
`report.json`, one strict-JSON array: a metric the level does not have is
null there, while an in-memory report keeps it NaN.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
from scipy.stats import rankdata

from .episodes import Episode, EpisodeSampler
from .graphs import TEST, TRAIN, Corpus
from .model import GraphBank, ModelConfig, batch_forward, params_to_tensors

DEFAULT_SEEDS = (0, 1, 2, 3, 4)
# bytes of one pack's activation, B x (S + Q) x 2d x itemsize: 512 rows at
# the desk width in float64. Measured on `train-small` node shapes (S = 20,
# Q = 32, desk preset, float64, one thread, best of repeats): the forward
# costs 0.70 ms per episode alone, 0.40 ms in a 104 KiB pack, and 0.31-0.34
# ms from 208 KiB up to 1.2 MiB; only at 1.6 MiB did it rise (0.39-0.41 ms).
PACK_BYTES = 256 * 1024


class LeakageError(RuntimeError):
    """Evaluation episode crossed the train/test split."""


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def accuracy(predicted, labels) -> float:
    predicted = np.asarray(predicted)
    labels = np.asarray(labels)
    if predicted.shape != labels.shape or predicted.size == 0:
        raise ValueError("accuracy needs equal-length, non-empty label arrays")
    return float(np.mean(predicted == labels))


def roc_auc(scores, labels) -> float:
    """Probability a positive outranks a negative; ties count one half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC-AUC needs both classes present")
    ranks = rankdata(scores)
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def hits_at_k(scores, labels, k: int) -> float:
    """Fraction of positives scoring strictly above the k-th largest negative."""
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if pos.size == 0:
        raise ValueError("hits@k needs at least one positive")
    if neg.size < k:
        return 1.0
    threshold = np.sort(neg)[-k]
    return float(np.mean(pos > threshold))


# ---------------------------------------------------------------------------
# leakage guard
# ---------------------------------------------------------------------------

def assert_no_leakage(episode: Episode, corpus: Corpus) -> None:
    """Hard-abort when an eval episode touches the wrong split side: node
    and graph supports must be tagged train and queries test; a link
    positive must be an edge of its side's split, a negative no edge."""
    if episode.level == "link":
        g = corpus.graphs[episode.graph_index]
        for refs, labels, side in (
            (episode.support_refs, episode.support_labels, TRAIN),
            (episode.query_refs, episode.query_labels, TEST),
        ):
            rows = g.edge_rows(refs)
            labels = np.asarray(labels)
            wrong_side = (rows < 0) | (g.edge_split[rows] != side)
            bad = ((labels == 1) & wrong_side) | ((labels == 0) & (rows >= 0))
            if bad.any():
                i = int(np.argmax(bad))
                u, v = (int(x) for x in refs[i])
                pair = (min(u, v), max(u, v))
                if labels[i] == 1:
                    raise LeakageError(f"positive pair {pair} not a {side}-split edge")
                raise LeakageError(f"negative pair {pair} is a real edge")
        return
    if episode.level == "node":
        tags = corpus.graphs[episode.graph_index].node_split
    else:
        tags = np.array([g.graph_split_tag for g in corpus.graphs])
    if np.any(tags[episode.support_refs] != TRAIN):
        raise LeakageError(f"support {episode.level} outside the train split")
    if np.any(tags[episode.query_refs] != TEST):
        raise LeakageError(f"query {episode.level} outside the test split")


def params_digest(arrays: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name in sorted(arrays):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arrays[name]).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------

def pack_episodes(episodes, row_bytes: int, budget: int) -> list[list]:
    """Consecutive episodes, in order, grouped while they share support and
    query sizes and the group's activation, len(group) x (S + Q) x row_bytes,
    stays within `budget`. An episode over the budget forms a group of one.

    A group needs no pad rows, and that keeps it exact: a BLAS
    matrix-vector product, such as LayerNorm's row means, can round a row
    differently when the rows after it change in number, so padding would
    move the last bits of an episode's log-probabilities."""
    packs = []
    for episode in episodes:
        shape = (episode.support_size, episode.query_size)
        last = packs[-1] if packs else []
        if (last and (last[0].support_size, last[0].query_size) == shape
                and (len(last) + 1) * sum(shape) * row_bytes <= budget):
            last.append(episode)
        else:
            packs.append([episode])
    return packs


@dataclass
class EvalReport:
    level: str
    n_way: int
    k_shot: int
    episodes_per_run: int
    seeds: tuple
    per_run: list = field(default_factory=list)
    mean_accuracy: float = float("nan")
    sd_accuracy: float = float("nan")
    mean_auc: float = float("nan")
    sd_auc: float = float("nan")
    mean_hits: float = float("nan")
    sd_hits: float = float("nan")
    hits_k: int = 10

    def to_dict(self) -> dict:
        """The fields as strict JSON values: a NaN metric becomes None."""
        return {name: None if isinstance(value, float) and math.isnan(value) else value
                for name, value in asdict(self).items()}


def _mean_sd(values):
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std(ddof=1)) if arr.size > 1 else 0.0


def _draw_runs(corpus: Corpus, report: EvalReport, query_size: int) -> list[list[Episode]]:
    """Each seed's episodes for `report`'s protocol, in sampled order, every
    one checked against the split."""
    runs = []
    for seed in report.seeds:
        sampler = EpisodeSampler(
            corpus, report.level, n_way=report.n_way, k_shot=report.k_shot,
            query_size=query_size, policy="eval", seed=[997, seed],
        )
        episodes = [sampler.sample() for _ in range(report.episodes_per_run)]
        for episode in episodes:
            assert_no_leakage(episode, corpus)
        runs.append(episodes)
    return runs


def _score_run(bank: GraphBank, params, report: EvalReport, seed, episodes) -> dict:
    """One run's metrics, each the mean over its episodes."""
    level = report.level
    row_bytes = 2 * bank.cfg.d * np.dtype(bank.cfg.np_dtype()).itemsize
    accs, aucs, hits = [], [], []
    for pack in pack_episodes(episodes, row_bytes, PACK_BYTES):
        logps = batch_forward(bank, pack, params).values
        for episode, logp in zip(pack, logps):
            accs.append(accuracy(np.argmax(logp, axis=1), episode.query_labels))
            if level == "link":
                # log is monotone, so log-probabilities rank like probabilities
                aucs.append(roc_auc(logp[:, 1], episode.query_labels))
                hits.append(hits_at_k(logp[:, 1], episode.query_labels, report.hits_k))
    run = {"seed": int(seed), "accuracy": float(np.mean(accs))}
    if level == "link":
        run["auc"] = float(np.mean(aucs))
        run["hits"] = float(np.mean(hits))
    return run


def evaluate(corpus: Corpus, arrays: dict[str, np.ndarray], cfg: ModelConfig,
             level: str, n_way: int, k_shot: int, episodes_per_run: int = 8,
             seeds=DEFAULT_SEEDS, query_size: int = 2048, hits_k: int = 10,
             bank: GraphBank | None = None) -> EvalReport:
    """Frozen-model evaluation over several independently seeded runs: the
    one report of `sweep_shots` at the single budget `k_shot`."""
    [report] = sweep_shots(corpus, arrays, cfg, level, n_way, (k_shot,),
                           episodes_per_run, seeds, query_size, hits_k, bank)
    return report


def sweep_shots(corpus: Corpus, arrays: dict[str, np.ndarray], cfg: ModelConfig,
                level: str, n_way: int, ks=(1, 5, 10, 20),
                episodes_per_run: int = 8, seeds=DEFAULT_SEEDS,
                query_size: int = 2048, hits_k: int = 10,
                bank: GraphBank | None = None) -> list[EvalReport]:
    """One report per support budget in `ks`, in order, for one frozen model.

    Every budget's episodes are drawn and checked before the first forward,
    so an infeasible or leaking draw at any budget is refused before any is
    scored. A passed `bank` is used only when `bank.corpus is corpus and
    bank.cfg == cfg`; any other bank is ignored and a fresh one is built.
    """
    reports = [EvalReport(level=level, n_way=n_way, k_shot=k,
                          episodes_per_run=episodes_per_run,
                          seeds=tuple(seeds), hits_k=hits_k) for k in ks]
    drawn = [_draw_runs(corpus, report, query_size) for report in reports]

    digest_before = params_digest(arrays)
    params = params_to_tensors(arrays, requires_grad=False)
    if bank is None or bank.corpus is not corpus or bank.cfg != cfg:
        bank = GraphBank(corpus, cfg)
    bank.use_model(digest_before)
    for report, runs in zip(reports, drawn):
        report.per_run = [_score_run(bank, params, report, seed, episodes)
                          for seed, episodes in zip(report.seeds, runs)]
        report.mean_accuracy, report.sd_accuracy = _mean_sd(
            [r["accuracy"] for r in report.per_run])
        if level == "link":
            report.mean_auc, report.sd_auc = _mean_sd([r["auc"] for r in report.per_run])
            report.mean_hits, report.sd_hits = _mean_sd([r["hits"] for r in report.per_run])

    if params_digest(arrays) != digest_before:
        raise RuntimeError("evaluation mutated model parameters")
    return reports


def write_reports(reports: list[EvalReport], path) -> Path:
    path = Path(path)
    path.write_text(json.dumps([r.to_dict() for r in reports], indent=2,
                               sort_keys=True, allow_nan=False))
    return path
