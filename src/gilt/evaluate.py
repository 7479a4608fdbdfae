"""Evaluation harness: frozen-model episodic protocol and metrics.

Every reported number follows the same protocol: supports come from the
train split, queries from the test split, the model runs without any
dropout, and nothing updates parameters (a content hash is checked before
and after to prove it). Split leakage is treated as a defect, not a
warning: any episode whose items sit on the wrong side of the split
aborts the evaluation.

Metrics: accuracy for classification levels, plus ROC-AUC (rank-based,
ties counted half) and hits@k (positives strictly above the k-th best
negative) for link prediction. Results aggregate as mean and standard
deviation over independent run seeds.
"""
from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.stats import rankdata

from .episodes import Episode, EpisodeSampler
from .graphs import TEST, TRAIN, Corpus
from .model import GraphBank, ModelConfig, episode_forward, params_to_tensors

DEFAULT_SEEDS = (0, 1, 2, 3, 4)


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
    """Hard-abort when an eval episode touches the wrong split side."""
    if episode.level == "node":
        g = corpus.graphs[episode.graph_index]
        if np.any(g.node_split[episode.support_refs] != TRAIN):
            raise LeakageError("support node outside the train split")
        if np.any(g.node_split[episode.query_refs] != TEST):
            raise LeakageError("query node outside the test split")
        if set(map(int, episode.support_refs)) & set(map(int, episode.query_refs)):
            raise LeakageError("support and query nodes overlap")
    elif episode.level == "link":
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
    else:
        tags = np.array([g.graph_split_tag for g in corpus.graphs])
        if np.any(tags[episode.support_refs] != TRAIN):
            raise LeakageError("support graph outside the train split")
        if np.any(tags[episode.query_refs] != TEST):
            raise LeakageError("query graph outside the test split")


def params_digest(arrays: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name in sorted(arrays):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arrays[name]).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------

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

    def to_json(self) -> str:
        payload = {
            "level": self.level, "n_way": self.n_way, "k_shot": self.k_shot,
            "episodes_per_run": self.episodes_per_run, "seeds": list(self.seeds),
            "per_run": self.per_run, "hits_k": self.hits_k,
            "mean_accuracy": self.mean_accuracy, "sd_accuracy": self.sd_accuracy,
            "mean_auc": self.mean_auc, "sd_auc": self.sd_auc,
            "mean_hits": self.mean_hits, "sd_hits": self.sd_hits,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _mean_sd(values):
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std(ddof=1)) if arr.size > 1 else 0.0


def evaluate(corpus: Corpus, arrays: dict[str, np.ndarray], cfg: ModelConfig,
             level: str, n_way: int, k_shot: int, episodes_per_run: int = 8,
             seeds=DEFAULT_SEEDS, query_size: int = 2048, hits_k: int = 10,
             bank: GraphBank | None = None) -> EvalReport:
    """Frozen-model evaluation over several independently seeded runs."""
    digest_before = params_digest(arrays)
    params = params_to_tensors(arrays, requires_grad=False)
    if bank is None:
        bank = GraphBank(corpus, cfg)
    bank.use_model(digest_before, cfg)

    report = EvalReport(level=level, n_way=n_way, k_shot=k_shot,
                        episodes_per_run=episodes_per_run,
                        seeds=tuple(seeds), hits_k=hits_k)
    for seed in seeds:
        sampler = EpisodeSampler(
            corpus, level, n_way=n_way, k_shot=k_shot, query_size=query_size,
            policy="eval", seed=[997, seed],
        )
        accs, aucs, hits = [], [], []
        for _ in range(episodes_per_run):
            episode = sampler.sample()
            assert_no_leakage(episode, corpus)
            logp = episode_forward(bank, episode, params, cfg, train=False)
            pred = np.argmax(logp.values, axis=1)
            accs.append(accuracy(pred, episode.query_labels))
            if level == "link":
                # log is monotone, so log-probabilities rank like probabilities
                pos_score = logp.values[:, 1]
                aucs.append(roc_auc(pos_score, episode.query_labels))
                hits.append(hits_at_k(pos_score, episode.query_labels, hits_k))
        run = {"seed": int(seed), "accuracy": float(np.mean(accs))}
        if level == "link":
            run["auc"] = float(np.mean(aucs))
            run["hits"] = float(np.mean(hits))
        report.per_run.append(run)

    report.mean_accuracy, report.sd_accuracy = _mean_sd(
        [r["accuracy"] for r in report.per_run])
    if level == "link":
        report.mean_auc, report.sd_auc = _mean_sd([r["auc"] for r in report.per_run])
        report.mean_hits, report.sd_hits = _mean_sd([r["hits"] for r in report.per_run])

    if params_digest(arrays) != digest_before:
        raise RuntimeError("evaluation mutated model parameters")
    return report


def write_report(report: EvalReport, path) -> Path:
    path = Path(path)
    path.write_text(report.to_json())
    return path


RESULTS_COLUMNS = ("level", "n_way", "k_shot", "episodes_per_run", "n_runs",
                   "mean_accuracy", "sd_accuracy", "mean_auc", "sd_auc",
                   "mean_hits", "sd_hits")


def append_results_row(report: EvalReport, path) -> Path:
    path = Path(path)
    fresh = not path.exists()
    with path.open("a", newline="") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(RESULTS_COLUMNS)
        writer.writerow([
            report.level, report.n_way, report.k_shot, report.episodes_per_run,
            len(report.seeds), repr(report.mean_accuracy), repr(report.sd_accuracy),
            repr(report.mean_auc), repr(report.sd_auc),
            repr(report.mean_hits), repr(report.sd_hits),
        ])
    return path


def sweep_shots(corpus: Corpus, arrays: dict[str, np.ndarray], cfg: ModelConfig,
                level: str, n_way: int, ks=(1, 5, 10, 20),
                episodes_per_run: int = 8, seeds=DEFAULT_SEEDS,
                query_size: int = 2048) -> list[dict]:
    """Evaluate the same frozen model across support budgets."""
    bank = GraphBank(corpus, cfg)
    rows = []
    for k in ks:
        rep = evaluate(corpus, arrays, cfg, level, n_way, k,
                       episodes_per_run=episodes_per_run, seeds=seeds,
                       query_size=query_size, bank=bank)
        rows.append({"k_shot": int(k), "mean_accuracy": rep.mean_accuracy,
                     "sd_accuracy": rep.sd_accuracy})
    return rows


def write_sweep(rows: list[dict], path) -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("k_shot", "mean_accuracy", "sd_accuracy"))
        for row in rows:
            writer.writerow([row["k_shot"], repr(row["mean_accuracy"]),
                             repr(row["sd_accuracy"])])
    return path
