"""Metrics of one round: end-to-end figures and per-layer figures.

Every time that enters an end-to-end metric is scaled to the nominal
reference speed (README.md, "Speed reference"); `wall_clock` gives the
unscaled throughputs for the log.
"""
from __future__ import annotations

import resource
import statistics

from workloads import EPISODES_PER_CHUNK, quality


def _metric(value, unit: str) -> dict:
    return {"value": None if value is None else float(value), "unit": unit}


def _median_rate(count: int, seconds: list):
    """Median of `count` items per sample over the samples' seconds."""
    return statistics.median(count / s for s in seconds) if seconds else None


def end_to_end(res) -> dict:
    """The user-facing figures of one untraced round."""
    q = quality(res)
    setups = res.eval_setups.scaled()
    return {
        "setup_s": _metric(statistics.median(setups) if setups else None, "s"),
        "train_episodes_per_s": _metric(
            _median_rate(res.episodes_per_epoch, res.epochs.scaled()[1:]), "1/s"),
        "eval_node_episodes_per_s": _metric(_median_rate(
            EPISODES_PER_CHUNK["node"], res.chunks["node"].scaled()), "1/s"),
        "eval_link_episodes_per_s": _metric(_median_rate(
            EPISODES_PER_CHUNK["link"], res.chunks["link"].scaled()), "1/s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "train_loss": _metric(q["train_loss"], "nats"),
        "eval_node_acc": _metric(q["eval_node_acc"], "fraction"),
        "eval_link_auc": _metric(q["eval_link_auc"], "fraction"),
        "ok_frac": _metric(1.0 - res.failed / res.attempted, "fraction"),
    }


def wall_clock(res) -> dict:
    """Unscaled figures for the log: throughputs, the reference time, and
    epoch 0's excess over a steady epoch (lazy bank preparation plus the
    preflight gradient check)."""
    epochs = res.epochs.seconds
    refs = res.epochs.reference + res.eval_setups.reference + res.chunks["link"].reference
    return {
        "reference_ms": 1000.0 * statistics.median(refs) if refs else None,
        "epoch0_excess_s": (epochs[0] - statistics.median(epochs[1:])
                            if len(epochs) > 1 else None),
        "eval_setup_s": (statistics.median(res.eval_setups.seconds)
                         if res.eval_setups.seconds else None),
        "train_episodes_per_s": _median_rate(res.episodes_per_epoch, epochs[1:]),
        "eval_node_episodes_per_s": _median_rate(
            EPISODES_PER_CHUNK["node"], res.chunks["node"].seconds),
        "eval_link_episodes_per_s": _median_rate(
            EPISODES_PER_CHUNK["link"], res.chunks["link"].seconds),
    }


def per_layer(tracer, res, untraced_wall: float) -> dict:
    """Per-layer figures of one traced round.

    Layers that work during set-up (PCA alignment, bank misses) are totals
    per round; every other layer is per timed episode, over the timed
    epochs and the eval chunks, so that set-up never dilutes them.
    """
    timed = ("train.steady", "eval.node", "eval.link")
    episodes = ((len(res.epochs.seconds) - 1) * res.episodes_per_epoch
                + sum(len(runs) * EPISODES_PER_CHUNK[lv]
                      for lv, runs in res.chunk_runs.items()))
    selfs = tracer.self_seconds()
    spans = tracer.span_counts()

    def ms(*names, phases=timed, per=episodes):
        total = sum(selfs.get((p, n), 0.0) for p in phases for n in names)
        return _metric(1000.0 * total / per, "ms")

    def calls(name, phases=timed, per=episodes):
        return _metric(sum(spans.get((p, name), 0) for p in phases) / per, "count")

    def counted(key, phases=None):
        return sum(c for (p, k), c in tracer.counts.items()
                   if k == key and (phases is None or p in phases))

    def tape(level):
        sizes = tracer.tape.get(("train.steady", level), [])
        return _metric(statistics.fmean(sizes) if sizes else 0.0, "count")

    every = sorted({p for p, _ in selfs} | {p for p, _ in spans})
    hits, misses = counted("model.encoded.hit"), counted("model.encoded.miss")
    levels = ("node", "link", "graph")
    return {
        "autodiff.backward.ms": ms("autodiff.backward"),
        **{f"autodiff.tape_nodes.{lv}": tape(lv) for lv in levels},
        "transformer.forward.ms": ms("transformer.forward"),
        "transformer.forward.calls": calls("transformer.forward"),
        "tokens.build_tokens.ms": ms("tokens.build_tokens"),
        "tokens.mean_pool.calls": _metric(
            counted("tokens.mean_pool", timed) / episodes, "count"),
        "head.predict.ms": ms("head.predict"),
        "head.episode_loss.ms": ms("head.episode_loss"),
        "encoder.encode.ms": ms("encoder.encode"),
        "encoder.encode.calls": calls("encoder.encode"),
        "encoder.normalize_adjacency.ms": ms("encoder.normalize_adjacency"),
        "encoder.normalize_adjacency.calls": calls("encoder.normalize_adjacency"),
        "features.align.ms": ms("features.align", phases=every, per=1),
        "features.align.calls": calls("features.align", phases=every, per=1),
        "features.align_incremental.calls": _metric(
            counted("features.align_incremental"), "count"),
        "model.prepared.ms": ms("model.prepared", phases=every, per=1),
        "model.encoded.hit_ratio": _metric(hits / max(hits + misses, 1), "fraction"),
        "episodes.sample.ms": ms(*(f"episodes.sample.{lv}" for lv in levels)),
        "episodes.sample.node.ms": ms("episodes.sample.node"),
        "episodes.sample.link.ms": ms("episodes.sample.link"),
        **{f"episodes.sample.{lv}.calls": calls(f"episodes.sample.{lv}") for lv in levels},
        "graphs.edge_set.ms": ms("graphs.edge_set"),
        "graphs.edge_set.calls": calls("graphs.edge_set"),
        "evaluate.assert_no_leakage.ms": ms("evaluate.assert_no_leakage"),
        "evaluate.metrics.ms": ms("evaluate.metrics"),
        "train.clip_gradients.ms": ms("train.clip_gradients"),
        "train.adamw_step.ms": ms("train.adamw_step"),
        "train.save_checkpoint.ms": ms("train.save_checkpoint"),
        "trace.untraced_round_s": _metric(untraced_wall, "s"),
        "trace.traced_round_s": _metric(res.wall_s, "s"),
        "trace.overhead": _metric(res.wall_s / untraced_wall - 1.0, "fraction"),
    }
